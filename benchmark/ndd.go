package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
)

// fig7Golden is the committed golden document of the paper-fig7 suite,
// relative to the repository root the benchmark runs from.
var fig7Golden = filepath.Join("internal", "engine", "testdata", "golden", "suite-paper-fig7.json")

// Set-up pool sizes: finished jobs the hit class resubmits.
const (
	poolExact = 3
	poolMC    = 3
)

// clientCount is the closed loop's client count: one per CPU, so the load
// never oversubscribes the host the engine's workers already fill.
func clientCount(nproc int) int {
	if nproc < 1 {
		return 1
	}
	return nproc
}

// daemon is one in-process ndd: the server behind a loopback listener,
// plus the finished jobs the hit class resubmits.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
	hc     *http.Client

	pool []server.JobRequest // pool[0] is paper-fig7
}

// startDaemon starts a daemon on a loopback port.
func startDaemon(workers, clients int) (*daemon, error) {
	srv, err := server.New(server.Config{
		Workers: workers,
		// Keep every finished job, so set-up pool entries are never
		// evicted and a hit is always a hit.
		CacheEntries: 1 << 20,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4 * clients,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the server down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A timed-out shutdown has still closed the listener, and Close below
	// ends the jobs any lingering handler follows.
	_ = d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Close()
	d.hc.CloseIdleConnections()
}

// job is one ndd-mixed submission and what came back.
type job struct {
	class  string
	client int
	index  int
	traced bool
	req    server.JobRequest

	status    server.JobStatus // the submit response
	doc       []byte
	events    int64
	latencyMS float64
	err       error
}

// call runs one job the way a client waits for it: submit, follow the SSE
// stream to the terminal result event, then fetch the result bytes. Latency
// runs from submit to the last result byte.
func (d *daemon) call(j *job, tr *tracer) {
	t0 := time.Now()
	root := tr.begin("job", 0)
	defer func() {
		j.latencyMS = ms(time.Since(t0))
		tr.end(root, 0)
	}()
	id := tr.begin("server.submit", root)
	j.status, j.err = d.submit(j.req)
	tr.end(id, 0)
	if j.err != nil {
		return
	}
	id = tr.begin("server.sse", root)
	j.events, j.err = d.follow(j.status.ID)
	tr.end(id, j.events)
	if j.err != nil {
		return
	}
	id = tr.begin("server.result", root)
	j.doc, j.err = d.get("/v1/jobs/" + j.status.ID + "/result")
	tr.end(id, int64(len(j.doc)))
}

func (d *daemon) submit(req server.JobRequest) (server.JobStatus, error) {
	var st server.JobStatus
	blob, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := d.hc.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return st, json.Unmarshal(body, &st)
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// follow reads the job's SSE stream until the terminal "result" event and
// returns how many events it saw. The job's completion is timed from that
// event, never from status polling.
func (d *daemon) follow(id string) (int64, error) {
	resp, err := d.hc.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var n int64
	var name, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return n, fmt.Errorf("events ended before the result event: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if name == "" {
				continue
			}
			n++
			if name == "result" {
				var ev struct {
					State string `json:"state"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return n, fmt.Errorf("result event: %w", err)
				}
				if ev.State != "done" {
					return n, fmt.Errorf("job %s ended %s: %s", id, ev.State, ev.Error)
				}
				// The stream ends after the terminal event; drain it so
				// the connection is reused.
				_, err := io.Copy(io.Discard, br)
				return n, err
			}
			name, data = "", ""
		}
	}
}

// seedPool runs the set-up jobs the hit class resubmits: paper-fig7, then
// poolExact exact queries and poolMC Monte-Carlo jobs.
func (d *daemon) seedPool(seed int64) error {
	reqs := []server.JobRequest{{Kind: "suite", Name: "paper-fig7"}}
	for i := 0; i < poolExact; i++ {
		reqs = append(reqs, server.JobRequest{Kind: "suite", Scenarios: exactJob(seed, -1, i)})
	}
	for i := 0; i < poolMC; i++ {
		scs, err := mcJob(seed, -1, i)
		if err != nil {
			return err
		}
		reqs = append(reqs, server.JobRequest{Kind: "suite", Scenarios: scs})
	}
	for _, req := range reqs {
		j := &job{req: req}
		d.call(j, nil)
		if j.err != nil {
			return fmt.Errorf("pool job %q: %w", label(req), j.err)
		}
	}
	d.pool = reqs
	return nil
}

func label(req server.JobRequest) string {
	if req.Name != "" {
		return req.Name
	}
	return "inline"
}

// request is a client's i'th job: its class and request. A client's hits
// walk the set-up pool in turn, so every len(pool)'th hit is paper-fig7.
func request(seed int64, client, i, hits int, pool []server.JobRequest) (string, server.JobRequest, error) {
	class := jobClass(seed, client, i)
	switch class {
	case classHit:
		return class, pool[hits%len(pool)], nil
	case classExact:
		return class, server.JobRequest{Kind: "suite", Scenarios: exactJob(seed, client, i)}, nil
	default:
		scs, err := mcJob(seed, client, i)
		return class, server.JobRequest{Kind: "suite", Scenarios: scs}, err
	}
}

// roundJobs is how many jobs each client runs in one round. Every round
// runs on a freshly started daemon, so the result cache (and the memory it
// retains) stays bounded however long the run measures. It is a multiple
// of len(classPattern), so every round has the same class mix.
var roundJobs = 66 * len(classPattern)

// runNDD is the ndd-mixed workload: clientCount closed-loop clients drive
// an in-process daemon over loopback HTTP with an equal mix of result-cache
// hits, new exact design queries and new small Monte-Carlo jobs, in rounds
// of roundJobs jobs a client, each round on a fresh daemon whose start-up
// and hit pool are the set-up. Each round's served documents are verified
// after it, so verification never competes with the jobs being timed.
func runNDD(e *env) (*report, error) {
	r := &report{}
	clients := clientCount(e.nproc)
	perClient := make([][]*job, clients)
	byClass := map[string][]float64{}
	hits := make([]int, clients)
	rss := startRSS()
	defer rss.stop()
	var mem memCounters
	acc := newLayerAcc(e.nproc)
	pool := map[string][]byte{}
	for round := 0; round == 0 || r.windowS < e.seconds; round++ {
		t0 := time.Now()
		d, err := startDaemon(e.nproc, clients)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := d.seedPool(e.seed); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())

		rss.take()
		m0 := readMem()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < roundJobs; k++ {
					i := round*roundJobs + k
					class, req, err := request(e.seed, c, i, hits[c], d.pool)
					if class == classHit {
						hits[c]++
					}
					// Whole class-pattern cycles alternate between traced
					// and untraced, so both halves see the same class mix.
					j := &job{class: class, client: c, index: i, req: req, err: err,
						traced: e.traced() && (i/len(classPattern))%2 == 0}
					if err == nil {
						tr := e.tr
						if !j.traced {
							tr = nil
						}
						d.call(j, tr)
					}
					perClient[c] = append(perClient[c], j)
				}
			}(c)
		}
		wg.Wait()
		r.windowS += time.Since(start).Seconds()
		mem = addMem(mem, readMem().sub(m0))
		r.rssMB = append(r.rssMB, rss.take())
		d.stop()

		// Check the round's jobs between rounds, untimed, and drop their
		// documents so memory stays bounded.
		var jobs []*job
		for c := range perClient {
			jobs = append(jobs, perClient[c]...)
			perClient[c] = perClient[c][:0]
		}
		if err := verifyJobs(e, jobs, pool, r, acc); err != nil {
			return nil, err
		}
		for _, j := range jobs {
			byClass[j.class] = append(byClass[j.class], j.latencyMS)
		}
	}

	for _, c := range []string{classHit, classExact, classMC} {
		xs := byClass[c]
		r.summary = append(r.summary,
			fmt.Sprintf("%-28s %14.6f ms (n=%d)", c+"_ms_p50", quantile(xs, 0.5), len(xs)),
			fmt.Sprintf("%-28s %14.6f ms (n=%d)", c+"_ms_p90", quantile(xs, 0.9), len(xs)))
	}
	if e.traced() {
		r.layers = acc.finalize(e.tr.snapshot())
		// The daemon and the clients share the process: runtime counters
		// cover the whole loop, per job.
		r.layers["runtime.gc_cycles"] = float64(mem.gcCycles) / float64(r.attempted)
		r.layers["runtime.alloc_mb"] = float64(mem.allocBytes) / 1e6 / float64(r.attempted)
	}
	return r, nil
}

// verifyJobs checks every served document from outside the daemon and
// fills the report and, for traced jobs, the layer accumulator. A broken
// workload premise (a hit that was not cached, an exact job that ran
// trials) is an error; a wrong document is a failed job.
func verifyJobs(e *env, jobs []*job, pool map[string][]byte, r *report, acc *layerAcc) error {
	// Hits resubmit set-up pool jobs: their expected documents are rendered
	// once a run, into pool.
	for _, j := range jobs {
		key := string(mustJSON(j.req))
		if _, ok := pool[key]; ok || j.class != classHit {
			continue
		}
		var want []byte
		var err error
		if j.req.Name == "paper-fig7" {
			want, err = os.ReadFile(fig7Golden)
		} else {
			want, err = inProcess(j.req, e.nproc, nil)
		}
		if err != nil {
			return fmt.Errorf("expected document of %s: %w", label(j.req), err)
		}
		pool[key] = want
	}
	// Every other job is new. Untraced jobs are checked on nproc goroutines,
	// each running the engine with one worker (results do not depend on the
	// worker count); traced ones serially, under spans.
	checks := make([]jobCheck, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				if j := jobs[i]; !j.traced || j.class == classHit {
					checks[i] = checkJob(j, pool, 1, nil)
				}
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if j.traced && j.class != classHit {
			checks[i] = checkJob(j, pool, e.nproc, e.tr)
		}
	}

	scr := sim.NewScratch()
	for i, j := range jobs {
		c := checks[i]
		j.doc = nil
		r.attempted++
		r.opMS = append(r.opMS, j.latencyMS)
		if c.res == nil {
			r.fail(e.log, fmt.Errorf("%s job %d/%d: %w", j.class, j.client, j.index, c.err))
			continue
		}
		m := *c.res.Runtime
		switch {
		case j.class == classHit && !j.status.Cached:
			return fmt.Errorf("hit job %d/%d (%s) was not answered from the result cache", j.client, j.index, label(j.req))
		case j.class == classExact && (m.Trials != 0 || m.ExactPoints != len(j.req.Scenarios)):
			return fmt.Errorf("exact job %d/%d ran %d trials over %d exact points", j.client, j.index, m.Trials, m.ExactPoints)
		}
		r.points += int64(len(c.res.Scenarios))
		if !j.status.Cached {
			r.trials += m.Trials
		}
		if c.err != nil {
			r.fail(e.log, fmt.Errorf("%s job %d/%d: %w", j.class, j.client, j.index, c.err))
			continue
		}
		if !j.traced {
			if e.traced() {
				acc.untracedMS = append(acc.untracedMS, j.latencyMS)
			}
			continue
		}
		acc.tracedMS = append(acc.tracedMS, j.latencyMS)
		ot := opTrace{wallMS: j.latencyMS, executed: !j.status.Cached, trials: map[string]int64{}}
		if j.status.Cached {
			acc.cacheHits++
			acc.ops = append(acc.ops, ot)
			continue
		}
		acc.addRun(m)
		ot.runMS = m.WallMS
		ot.refID = e.tr.begin("reference", 0)
		for i, sc := range j.req.Scenarios {
			agg := c.res.Scenarios[i]
			if err := traceReference(e.tr, ot.refID, sc, agg, warmKernelSample, scr, acc); err != nil {
				r.fail(e.log, fmt.Errorf("%s job %d/%d: %w", j.class, j.client, j.index, err))
				break
			}
			ot.trials[kernelOf(sc)] += int64(agg.Trials)
		}
		e.tr.end(ot.refID, 0)
		acc.ops = append(acc.ops, ot)
	}
	return nil
}

// jobCheck is one job's verification outcome: its decoded document (nil
// when the job failed or the document does not decode) and what is wrong
// with it.
type jobCheck struct {
	res *engine.SuiteResult
	err error
}

// checkJob compares a served document, stripped, with the pool's expected
// document or a fresh in-process run of the same request.
func checkJob(j *job, pool map[string][]byte, workers int, tr *tracer) jobCheck {
	if j.err != nil {
		return jobCheck{err: j.err}
	}
	var res engine.SuiteResult
	if err := json.Unmarshal(j.doc, &res); err != nil || res.Runtime == nil {
		return jobCheck{err: fmt.Errorf("document without runtime does not decode: %v", err)}
	}
	want, ok := pool[string(mustJSON(j.req))]
	if !ok {
		var err error
		if want, err = inProcess(j.req, workers, tr); err != nil {
			return jobCheck{res: &res, err: err}
		}
	}
	got, err := stripSuite(j.doc)
	if err != nil || !bytes.Equal(got, want) {
		return jobCheck{res: &res, err: fmt.Errorf("served document differs from the in-process run (%v)", err)}
	}
	return jobCheck{res: &res}
}

// inProcess runs a job request's scenarios in-process, the way the daemon
// does, and renders the stripped document the daemon's must equal.
func inProcess(req server.JobRequest, workers int, tr *tracer) ([]byte, error) {
	if req.Stream != "" || req.Kind != "suite" || req.Name != "" {
		return nil, errors.New("benchmark: in-process check covers inline suites only")
	}
	aggs, err := engine.RunSuite(req.Scenarios, engine.Options{Workers: workers, Trials: req.Trials, Exact: req.Exact})
	if err != nil {
		return nil, fmt.Errorf("in-process run: %w", err)
	}
	var buf bytes.Buffer
	id := tr.begin("report.encode", 0)
	err = engine.WriteJSON(&buf, engine.SuiteResult{Suite: label(req), Scenarios: aggs, Runtime: &obs.RunMetrics{}})
	tr.end(id, int64(buf.Len()))
	if err != nil {
		return nil, err
	}
	return stripSuite(buf.Bytes())
}

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return blob
}
