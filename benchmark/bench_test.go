package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 7, -3} {
		if !reflect.DeepEqual(coldBatch(seed, 5, coldPerKind), coldBatch(seed, 5, coldPerKind)) {
			t.Errorf("seed %d: cold batches differ", seed)
		}
		w1, err1 := warmSuite(seed)
		w2, err2 := warmSuite(seed)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(w1, w2) {
			t.Errorf("seed %d: warm suites differ (%v, %v)", seed, err1, err2)
		}
		if !reflect.DeepEqual(exactJob(seed, 1, 9), exactJob(seed, 1, 9)) {
			t.Errorf("seed %d: exact jobs differ", seed)
		}
		m1, err1 := mcJob(seed, 0, 4)
		m2, err2 := mcJob(seed, 0, 4)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(m1, m2) {
			t.Errorf("seed %d: mc jobs differ (%v, %v)", seed, err1, err2)
		}
		for i := 0; i < 50; i++ {
			if jobClass(seed, 1, i) != jobClass(seed, 1, i) {
				t.Fatalf("seed %d: job %d class differs", seed, i)
			}
		}
	}
	if reflect.DeepEqual(coldBatch(1, 0, coldPerKind), coldBatch(2, 0, coldPerKind)) {
		t.Error("seeds 1 and 2 generate the same cold batch")
	}
}

// TestDistinctBuildKeys checks the cold-design premise at the generator:
// no two designs of nearby ops (set-up warm-up batches included) share a
// protocol spec, the engine's build-cache key for a pair design.
func TestDistinctBuildKeys(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		seen := map[string]string{}
		add := func(batch []string, where string) {
			for _, k := range batch {
				if prev, dup := seen[k]; dup {
					t.Fatalf("seed %d: %s repeats the build key of %s: %s", seed, where, prev, k)
				}
				seen[k] = where
			}
		}
		for op := -setupRepeats; op < 60; op++ {
			perKind := coldPerKind
			if op < 0 {
				perKind = warmupPerKind
			}
			var keys []string
			for _, sc := range coldBatch(seed, op, perKind) {
				if sc.Population != 2 {
					t.Fatalf("cold design %s is not a pair design", sc.Name)
				}
				keys = append(keys, string(mustJSON(sc.Protocol)))
			}
			add(keys, fmt.Sprintf("op %d", op))
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the allowed
// characters, and that BENCHMARK.json declares exactly the workloads and
// metrics this program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is malformed", d.name, d.unit)
		}
	}
	for _, n := range workloadNames() {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("workload name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var got []metricDef
		for _, d := range declared {
			got = append(got, metricDef{d.Name, d.Unit})
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("BENCHMARK.json %s = %v, program reports %v", kind, got, defs)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Three serial children cover 20 + 30 + 10 of the parent.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "b", Start: 85, End: 95},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 3, Name: "c", Start: 35, End: 45},
		{ID: 6, Name: "other", Start: 5, End: 15},
	}
	want := map[int]int64{1: 40, 2: 20, 3: 20, 4: 10, 5: 10, 6: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := layerTotals(spans)
	if a := tot["a"]; a.selfNS != 40 || a.spans != 2 {
		t.Errorf("layer a = %+v, want self 40 over 2 spans", a)
	}
}

func TestClientCountBoundedByNproc(t *testing.T) {
	for nproc := -1; nproc <= 256; nproc++ {
		c := clientCount(nproc)
		if c < 1 || (nproc >= 1 && c > nproc) {
			t.Fatalf("clientCount(%d) = %d", nproc, c)
		}
	}
}

// TestCacheHitUnderPollInterval times cache-hit jobs from the SSE terminal
// event: they complete well under server.Client.Wait's 25 ms poll
// interval, which therefore cannot time them.
func TestCacheHitUnderPollInterval(t *testing.T) {
	const poll = 25 * time.Millisecond
	d, err := startDaemon(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	scs, err := mcJob(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := server.JobRequest{Kind: "suite", Scenarios: scs}
	first := &job{req: req}
	d.call(first, nil)
	if first.err != nil {
		t.Fatal(first.err)
	}
	var lat []float64
	for i := 0; i < 21; i++ {
		j := &job{req: req}
		d.call(j, nil)
		if j.err != nil || !j.status.Cached || !bytes.Equal(j.doc, first.doc) {
			t.Fatalf("hit %d: err %v, cached %t, same bytes %t", i, j.err, j.status.Cached, bytes.Equal(j.doc, first.doc))
		}
		lat = append(lat, j.latencyMS)
	}
	if p50 := median(lat); p50 > ms(poll)/5 {
		t.Errorf("cache-hit median latency %.3f ms; want well under the %v poll interval", p50, poll)
	}
}

// TestWorkloadsRunClean runs every workload briefly, untraced and traced,
// from the repository root the benchmark runs from.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "5", "--seconds", "0.01", "--trace", trace}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", name, err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace %s: %+v", name, trace, res)
			}
			if trace == "0" {
				for _, d := range defs {
					if v := res.Metrics[d.name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
					}
				}
			}
		}
	}
}
