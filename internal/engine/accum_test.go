package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// addTrial feeds one reference trial outcome into the accumulator the way
// runTrial does.
func addTrial(a *Accum, tr refTrial) {
	for _, s := range tr.samples {
		a.add(s)
	}
	a.Misses += int64(tr.misses)
	a.Transmissions += int64(tr.transmissions)
	a.Collided += int64(tr.collided)
	a.addContacts(tr.contacts)
	if tr.channel >= 0 {
		a.ChanDisc[tr.channel]++
	}
	for c, n := range tr.chanDisc {
		a.ChanDisc[c] += int64(n)
	}
	for c, l := range tr.perChannel {
		a.ChanTx[c] += int64(l.Transmissions)
		a.ChanColl[c] += int64(l.Collided)
	}
}

// refTemplates are the point shapes whose finalizer branches differ: the
// pair kind, churn with contact bins, the multi-channel pair with
// per-channel discovery counts, and the multi-node multi-channel kinds with
// per-channel traffic.
func refTemplates() []Scenario {
	const omega = 36 * timebase.Microsecond
	const bleOmega = 128 * timebase.Microsecond
	return []Scenario{
		{Name: "ref-pair", Protocol: ProtocolSpec{Kind: "optimal", Omega: omega, Alpha: 1, Eta: 0.05}, Population: 2},
		{Name: "ref-churn", Protocol: ProtocolSpec{Kind: "optimal", Omega: omega, Alpha: 1, Eta: 0.05}, Population: 4,
			Churn: &ChurnSpec{StayWorstMultiple: 2}},
		{Name: "ref-mc", Protocol: ProtocolSpec{Kind: "multichannel", Omega: bleOmega, Alpha: 1, Preset: "fast"}, Population: 2},
		{Name: "ref-mc-group", Protocol: ProtocolSpec{Kind: "multichannel-group", Omega: bleOmega, Alpha: 1, Preset: "fast"}, Population: 4,
			Channel: ChannelSpec{Collisions: true}},
		{Name: "ref-mc-churn", Protocol: ProtocolSpec{Kind: "multichannel-churn", Omega: bleOmega, Alpha: 1, Preset: "fast"}, Population: 4,
			Churn: &ChurnSpec{StayWorstMultiple: 4}},
	}
}

// TestAccumMatchesReferences feeds identical random trial outcomes to the
// previous two finalizers and to the accumulator, and requires identical
// aggregates: an unquantized accumulator must reproduce the exact path and
// a quantized one the 4096-bin streaming path, merged from a random number
// of per-worker parts. The outcomes cover ties, misses, points with no
// samples, churn contact bins, multi-channel per-channel counters, horizons
// under streamBins ticks (quantized at width 1), and samples on bin edges
// and at the horizon.
func TestAccumMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1905))
	templates := refTemplates()
	var cases struct{ noSamples, ties, misses, smallHorizon, onEdge, atHorizon, contacts, multi int }
	for iter := 0; iter < 2000; iter++ {
		sc := templates[iter%len(templates)]
		h := timebase.Ticks(1 + rng.Int63n(4095))
		if rng.Intn(2) == 0 {
			h = timebase.Ticks(4096 + rng.Int63n(2_000_000))
		} else {
			cases.smallHorizon++
		}
		sc.Horizon = HorizonSpec{Ticks: h}
		sc.Trials = 1 + rng.Intn(30)
		sc.Seed = int64(iter)
		p, err := prepare(sc, Options{}, new(coverage.Workspace))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		w := keyWidth(h, true)
		channels := p.chanCount()
		discoverP := rng.Float64() // 0 makes a point with no samples at all
		if iter%7 == 0 {
			discoverP = 0
		}
		var seen []timebase.Ticks
		latency := func() timebase.Ticks {
			var v timebase.Ticks
			switch rng.Intn(6) {
			case 0:
				v = 0
			case 1:
				v = h
				cases.atHorizon++
			case 2:
				v = timebase.Ticks(rng.Int63n(int64(h/w)+1)) * w // a bin's lower edge
				cases.onEdge++
			case 3:
				v = min(timebase.Ticks(rng.Int63n(int64(h/w)+1))*w+w-1, h) // a bin's last tick
				cases.onEdge++
			case 4:
				if len(seen) > 0 {
					cases.ties++
					return seen[rng.Intn(len(seen))]
				}
				v = h / 2
			default:
				v = timebase.Ticks(rng.Int63n(int64(h) + 1))
			}
			seen = append(seen, v)
			return v
		}
		trials := make([]refTrial, sc.Trials)
		for i := range trials {
			tr := refTrial{channel: -1}
			switch {
			case p.b.Mode == modeMultiChannel:
				if rng.Float64() < discoverP {
					tr.samples = []timebase.Ticks{latency()}
					tr.channel = rng.Intn(channels)
				} else {
					tr.misses = 1
				}
			case sc.Population == 2:
				if rng.Float64() < discoverP {
					tr.samples = []timebase.Ticks{latency()}
				} else {
					tr.misses = 1
				}
			default:
				pairs := sc.Population * (sc.Population - 1)
				for k := 0; k < pairs; k++ {
					if rng.Float64() < discoverP {
						tr.samples = append(tr.samples, latency())
					} else {
						tr.misses++
					}
					if sc.Churn != nil {
						overlap := timebase.Ticks(rng.Int63n(int64(2*max(p.b.WorstTwoWay, 1)) + 1))
						tr.contacts = append(tr.contacts, sim.Contact{Overlap: overlap, Discovered: rng.Intn(2) == 0})
					}
				}
				tr.transmissions = rng.Intn(50)
				tr.collided = rng.Intn(tr.transmissions + 1)
				if p.b.Mode == modeMultiChannelGroup {
					tr.chanDisc = make([]int, channels)
					tr.perChannel = make([]sim.ChannelLoad, channels)
					for c := range tr.chanDisc {
						tr.chanDisc[c] = rng.Intn(4)
						tr.perChannel[c] = sim.ChannelLoad{Transmissions: rng.Intn(20), Collided: rng.Intn(5)}
					}
				}
			}
			cases.misses += tr.misses
			cases.contacts += len(tr.contacts)
			if channels > 0 {
				cases.multi++
			}
			trials[i] = tr
		}

		exact := newAccum(p.horizon, 1, p.contactWorst(), channels)
		ref := newRefStreamAccum(p.horizon, p.contactWorst(), channels)
		parts := make([]*Accum, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = newAccum(p.horizon, w, p.contactWorst(), channels)
		}
		for _, tr := range trials {
			addTrial(exact, tr)
			ref.absorb(tr)
			addTrial(parts[rng.Intn(len(parts))], tr)
		}
		quant := parts[0]
		for _, part := range parts[1:] {
			if err := quant.merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if exact.Count == 0 {
			cases.noSamples++
		}
		for _, a := range []*Accum{exact, quant} {
			if err := a.validate(); err != nil {
				t.Fatalf("case %d (%s, horizon %d): accumulator invalid: %v", iter, sc.Name, h, err)
			}
		}
		if got, want := exact.aggregate(p.sc, p.b, false), refAggregateExact(p.sc, p.b, p.horizon, trials); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%s, horizon %d): unquantized aggregate differs from the exact path:\ngot  %+v\nwant %+v", iter, sc.Name, h, got, want)
		}
		if got, want := quant.aggregate(p.sc, p.b, true), refAggregateStream(p.sc, p.b, p.horizon, ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%s, horizon %d): quantized aggregate differs from the streaming path:\ngot  %+v\nwant %+v", iter, sc.Name, h, got, want)
		}
	}
	if cases.noSamples == 0 || cases.ties == 0 || cases.misses == 0 || cases.smallHorizon == 0 ||
		cases.onEdge == 0 || cases.atHorizon == 0 || cases.contacts == 0 || cases.multi == 0 {
		t.Fatalf("generator missed an input class: %+v", cases)
	}
}

// runQuantized runs a scenario's trials serially into one accumulator laid
// out as a quantized point and finalizes it as one: the aggregate the
// engine would report for the same trials on a point large enough to be
// quantized.
func runQuantized(t *testing.T, sc Scenario) Aggregate {
	t.Helper()
	p, err := prepare(sc, Options{}, new(coverage.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	p.quantized = true
	p.begin(1)
	acc := p.newAccum()
	scr := sim.NewScratch()
	for trial := 0; trial < p.sc.Trials; trial++ {
		if err := p.runTrial(trial, scr, acc); err != nil {
			t.Fatal(err)
		}
	}
	return acc.aggregate(p.sc, p.b, true)
}

// TestStreamMatchesExact pins the accuracy contract on real trials:
// against the exact aggregate, the quantized aggregate's counts, min/max,
// collision and contact numbers are identical, the mean agrees to float
// rounding, and every quantile is at most one bin width above the exact
// order statistic.
func TestStreamMatchesExact(t *testing.T) {
	for _, name := range []string{"group", "churn"} {
		sc := groupScenario()
		if name == "churn" {
			var err error
			sc, err = Preset("churn-busy")
			if err != nil {
				t.Fatal(err)
			}
			sc.Trials = 8
		}
		exact, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stream := runQuantized(t, sc)

		if exact.Streamed || !stream.Streamed {
			t.Fatalf("%s: Streamed flags wrong: exact=%v stream=%v", name, exact.Streamed, stream.Streamed)
		}
		if stream.QuantileResolution <= 0 {
			t.Fatalf("%s: streamed aggregate must report its quantile resolution", name)
		}
		if stream.Pairs != exact.Pairs ||
			stream.Latency.N != exact.Latency.N ||
			stream.Latency.Misses != exact.Latency.Misses ||
			stream.Latency.Min != exact.Latency.Min ||
			stream.Latency.Max != exact.Latency.Max ||
			stream.Transmissions != exact.Transmissions ||
			stream.Collided != exact.Collided {
			t.Fatalf("%s: exact-contract fields diverge:\nexact  %+v\nstream %+v", name, exact.Latency, stream.Latency)
		}
		if stream.CollisionRate != exact.CollisionRate || stream.FailureRate != exact.FailureRate {
			t.Fatalf("%s: pooled rates diverge: coll %v vs %v, fail %v vs %v",
				name, stream.CollisionRate, exact.CollisionRate, stream.FailureRate, exact.FailureRate)
		}
		if stream.Latency.Mean != exact.Latency.Mean {
			t.Fatalf("%s: means diverge: %v vs %v", name, stream.Latency.Mean, exact.Latency.Mean)
		}
		res := stream.QuantileResolution
		for _, q := range []struct {
			name          string
			exact, stream timebase.Ticks
		}{
			{"p50", exact.Latency.P50, stream.Latency.P50},
			{"p95", exact.Latency.P95, stream.Latency.P95},
			{"p99", exact.Latency.P99, stream.Latency.P99},
		} {
			if q.stream < q.exact || q.stream > q.exact+res {
				t.Errorf("%s %s: streamed %d outside [%d, %d+%d]", name, q.name, q.stream, q.exact, q.exact, res)
			}
		}
		if !reflect.DeepEqual(stream.ContactBins, exact.ContactBins) {
			t.Fatalf("%s: contact bins diverge:\nexact  %+v\nstream %+v", name, exact.ContactBins, stream.ContactBins)
		}
		// The CDF is monotone and its last point carries the full
		// discovered mass.
		for i := 1; i < len(stream.CDF); i++ {
			if stream.CDF[i].Fraction < stream.CDF[i-1].Fraction || stream.CDF[i].Latency < stream.CDF[i-1].Latency {
				t.Fatalf("%s: streamed CDF not monotone at %d: %+v", name, i, stream.CDF)
			}
		}
		if n := len(stream.CDF); n > 0 {
			discovered := float64(exact.Pairs - exact.Latency.Misses)
			if got := stream.CDF[n-1].Fraction; got != discovered/float64(exact.Pairs) {
				t.Fatalf("%s: streamed CDF tops out at %v, want %v", name, got, discovered/float64(exact.Pairs))
			}
		}
	}
}

// TestUseStreamSelection pins the quantization rule: it reads only the
// effective scenario's expected sample count.
func TestUseStreamSelection(t *testing.T) {
	small := Scenario{Population: 2, Trials: 100}
	big := Scenario{Population: 2, Trials: streamThreshold + 1}
	edge := Scenario{Population: 2, Trials: streamThreshold}
	group := Scenario{Population: 30, Trials: 1 + streamThreshold/(30*29)}
	if quantized(small) || quantized(edge) {
		t.Error("pair scenarios up to the threshold must keep exact keys")
	}
	if !quantized(big) {
		t.Error("large pair scenario must be quantized")
	}
	if !quantized(group) {
		t.Error("large group scenario must be quantized")
	}
	if w := keyWidth(1<<20, true); w != timebase.CeilDiv(1<<20+1, streamBins) {
		t.Errorf("quantized key width %d, want ⌈(horizon+1)/%d⌉", w, streamBins)
	}
	if keyWidth(1000, true) != 1 || keyWidth(1<<20, false) != 1 {
		t.Error("short horizons and unquantized points key exact ticks")
	}
}

// TestStreamAccumMergeOrderInsensitive: merging per-worker accumulators in
// any order must produce identical state — the property that makes an
// aggregate independent of worker scheduling.
func TestStreamAccumMergeOrderInsensitive(t *testing.T) {
	horizon := timebase.Ticks(1 << 20)
	for _, width := range []timebase.Ticks{1, keyWidth(horizon, true)} {
		parts := make([]*Accum, 3)
		for i := range parts {
			parts[i] = newAccum(horizon, width, 0, 0)
			for k := 0; k < 1000; k++ {
				parts[i].add(timebase.Ticks((i*37 + k*101) % (1 << 20)))
			}
			parts[i].Misses += int64(i)
			parts[i].Transmissions += int64(10 * i)
			parts[i].Collided += int64(i)
		}
		orders := [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}
		var merged []*Accum
		for _, ord := range orders {
			m := newAccum(horizon, width, 0, 0)
			for _, i := range ord {
				if err := m.merge(parts[i]); err != nil {
					t.Fatal(err)
				}
			}
			merged = append(merged, m)
		}
		for i := 1; i < len(merged); i++ {
			if !reflect.DeepEqual(merged[0], merged[i]) {
				t.Fatalf("width %d: merge order %v changed the state", width, orders[i])
			}
		}
	}
}

// TestStreamAccumBoundedAllocation is the bounded-memory guarantee: once a
// quantized accumulator's keys exist, 1.5 million samples stream through
// it without allocating — no sample is ever materialized.
func TestStreamAccumBoundedAllocation(t *testing.T) {
	const horizon = 1 << 22
	acc := newAccum(horizon, keyWidth(horizon, true), 0, 0)
	samples := make([]timebase.Ticks, 1000)
	for i := range samples {
		samples[i] = timebase.Ticks((i * 4099) % (1 << 22))
	}
	for _, s := range samples {
		acc.add(s)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1500; i++ {
			for _, s := range samples { // 1.5M samples total per run
				acc.add(s)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("adding 1.5M samples allocated %v times; a quantized accumulator must not allocate", allocs)
	}
	if acc.Count < 1500*1000 {
		t.Fatalf("accumulator absorbed only %d samples", acc.Count)
	}
	if len(acc.Counts) > streamBins {
		t.Fatalf("quantized accumulator holds %d keys, more than %d bins", len(acc.Counts), streamBins)
	}
}

// TestMillionTrialSweepPointStreams is the scale acceptance: a sweep point
// with one million trials runs to completion, automatically quantized.
func TestMillionTrialSweepPointStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-trial point; skipped with -short")
	}
	sp := SweepSpec{
		Name: "bulk",
		Base: Scenario{
			Protocol:   ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1},
			Population: 2,
			Trials:     1_000_000,
			Horizon:    HorizonSpec{Ticks: 5000},
			Seed:       9,
		},
		Axes: []SweepAxis{{Field: "protocol.eta", Values: []float64{0.05}}},
	}
	aggs, err := RunSweep(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := aggs[0]
	if !a.Streamed {
		t.Fatal("a 1M-trial point must be quantized automatically")
	}
	if a.Pairs != 1_000_000 || a.Latency.N != 1_000_000 {
		t.Fatalf("pair accounting wrong: pairs=%d N=%d", a.Pairs, a.Latency.N)
	}
	if a.Latency.N != a.Latency.Misses && a.Latency.Max <= 0 {
		t.Fatalf("implausible aggregate: %+v", a.Latency)
	}
}

// TestAccumValidateRejections: the snapshot decoder reads outside input, so
// every accumulator invariant a payload could break is refused.
func TestAccumValidateRejections(t *testing.T) {
	valid := func() *Accum {
		a := newAccum(100_000, keyWidth(100_000, true), 5000, 3)
		for _, lat := range []timebase.Ticks{40, 41, 4000, 99_999} {
			a.add(lat)
		}
		a.Misses, a.Transmissions, a.Collided = 2, 9, 3
		a.ChanDisc[1] = 4
		return a
	}
	if err := valid().validate(); err != nil {
		t.Fatalf("valid accumulator rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(a *Accum)
		want   string
	}{
		{"zero width", func(a *Accum) { a.Width = 0 }, "width"},
		{"key past horizon", func(a *Accum) { a.Counts[a.Horizon/a.Width+1]++; a.Count++ }, "outside"},
		{"negative key", func(a *Accum) { a.Counts[-1]++; a.Count++ }, "outside"},
		{"zero count", func(a *Accum) { a.Counts[7] = 0 }, "count 0"},
		{"count mismatch", func(a *Accum) { a.Count++ }, "count says"},
		{"min off its key", func(a *Accum) { a.Min = 0 }, "disagree"},
		{"max off its key", func(a *Accum) { a.Max = 40_000 }, "disagree"},
		{"max past the horizon", func(a *Accum) { a.Horizon, a.Max = 99_998, 99_999 }, "horizon"},
		{"sum below count·min", func(a *Accum) { a.SumLo = 1 }, "sum outside"},
		{"sum above count·max", func(a *Accum) { a.SumHi = 1 }, "sum outside"},
		{"empty with a min", func(a *Accum) { *a = *newAccum(a.Horizon, a.Width, a.Worst, 3); a.Min = 1 }, "empty"},
		{"negative misses", func(a *Accum) { a.Misses = -1 }, "negative"},
		{"negative channel counter", func(a *Accum) { a.ChanTx[2] = -1 }, "negative"},
		{"contact bins without a scale", func(a *Accum) { a.Worst = 0 }, "contact bins"},
		{"short contact bins", func(a *Accum) { a.ContactD = a.ContactD[:2] }, "contact bins"},
		{"channel lengths differ", func(a *Accum) { a.ChanColl = a.ChanColl[:1] }, "channel counters"},
	} {
		a := valid()
		c.mutate(a)
		if err := a.validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// TestStreamMergeGuards: accumulators of different layouts refuse to merge
// instead of silently corrupting state.
func TestStreamMergeGuards(t *testing.T) {
	a := newAccum(1000, 1, 0, 0)
	for _, c := range []struct {
		name string
		b    *Accum
		want string
	}{
		{"horizon", newAccum(2000, 1, 0, 0), "incompatible"},
		{"key width", newAccum(1000, 2, 0, 0), "incompatible"},
		{"contact scale", newAccum(1000, 1, 50, 0), "incompatible"},
		{"channel count", newAccum(1000, 1, 0, 3), "channels"},
	} {
		if err := a.merge(c.b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s mismatch: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	if err := a.merge(newAccum(1000, 1, 0, 0)); err != nil {
		t.Errorf("compatible merge: %v", err)
	}
	if err := a.merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

// BenchmarkAccumAddQuantized measures a quantized point's per-sample cost
// and, via ReportAllocs, documents the zero-allocation steady state.
func BenchmarkAccumAddQuantized(b *testing.B) {
	const horizon = 1 << 22
	samples := make([]timebase.Ticks, 1000)
	for i := range samples {
		samples[i] = timebase.Ticks((i * 4099) % (1 << 22))
	}
	acc := newAccum(horizon, keyWidth(horizon, true), 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, s := range samples {
			acc.add(s)
		}
	}
}

// quantizedScenario is the cheapest point whose keys are quantized at its
// real size: a crowd whose ordered pairs over all trials just exceed
// streamThreshold.
func quantizedScenario() Scenario {
	sc := groupScenario()
	sc.Name = "quantized-crowd"
	sc.Population = 30
	sc.Trials = 1 + streamThreshold/(30*29)
	return sc
}
