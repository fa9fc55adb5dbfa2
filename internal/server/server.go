// Package server is the engine's service layer: the HTTP daemon behind
// cmd/ndd. It accepts scenario/suite/sweep/adaptive job submissions,
// schedules them over a bounded priority queue onto a shared engine worker
// pool, streams progress and per-point results over SSE, answers repeated
// submissions from a canonical-spec-hash result cache, and (journal-backed)
// resumes in-flight jobs across a daemon restart.
//
// The layer adds scheduling, caching and transport — never computation:
// every document it serves is byte-identical (after StripRuntime) to what
// the equivalent ndscen invocation writes, which the end-to-end golden
// harness asserts against the committed goldens.
package server

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Config tunes the daemon; zero values select the documented defaults.
type Config struct {
	// Workers is the engine worker-goroutine count every job runs with
	// (0 = GOMAXPROCS). One pool size for all jobs: results are
	// bit-identical for any value, so it is pure capacity planning.
	Workers int

	// Runners is how many jobs execute concurrently (0 = 1). The default
	// keeps one job at a time on the shared pool; raise it only when jobs
	// are small and latency matters more than per-job throughput.
	Runners int

	// QueueSize bounds the jobs waiting to run (0 = 64). A full queue
	// rejects submissions with 429 and a Retry-After header.
	QueueSize int

	// CacheEntries bounds the finished jobs retained for result-cache
	// hits (0 = 128); past it the oldest finished job is forgotten.
	CacheEntries int

	// EventBuffer bounds each job's SSE ring (0 = 256 events); a slow
	// client past it loses the oldest events, never stalls the engine.
	EventBuffer int

	// JournalDir, when non-empty, makes jobs durable: requests persist at
	// submit, suite-shaped jobs journal per-point snapshots, and a
	// restarted daemon resumes unfinished jobs (see persist.go).
	JournalDir string

	// ProgressInterval is the progress-snapshot period (0 = the engine's
	// 500ms default).
	ProgressInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Runners <= 0 {
		c.Runners = 1
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	return c
}

// Server is the daemon: job registry, bounded priority queue, runner pool
// and result cache behind one http.Handler.
type Server struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*Job
	queue     jobHeap
	queued    int
	seq       int64
	doneOrder []string
	closed    bool

	jobsRun   atomic.Int64
	cacheHits atomic.Int64

	wg sync.WaitGroup

	// gate, when non-nil, holds every runner before each job start — a
	// test hook for deterministic queue-full and cancellation tests.
	gate chan struct{}
}

// New builds the daemon, replays its journal (when configured), and starts
// the runner pool.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:  cfg.withDefaults(),
		jobs: make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, fmt.Errorf("server: replaying journal %s: %w", cfg.JournalDir, err)
	}
	for i := 0; i < s.cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// Close stops the daemon: queued jobs stay queued (journal-backed ones
// resume on the next start), the running job's context is canceled, and
// every runner is joined before Close returns.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	for _, j := range jobs {
		j.mu.Lock()
		if j.cancelFn != nil && j.state == stateRunning {
			j.cancelFn()
		}
		j.mu.Unlock()
	}
	s.wg.Wait()
}

func (s *Server) newJob(spec jobSpec, req JobRequest) *Job {
	s.seq++
	return &Job{
		id:       fmt.Sprintf("%016x", spec.hash),
		spec:     spec,
		req:      req,
		seq:      s.seq,
		priority: req.Priority,
		submitNS: nowNS(),
		state:    stateQueued,
		done:     make(chan struct{}),
		events:   newEventBuffer(s.cfg.EventBuffer),
	}
}

func (s *Server) pushLocked(j *Job) {
	heap.Push(&s.queue, j)
	s.queued++
	s.cond.Signal()
}

// submit is the scheduling decision behind POST /v1/jobs: dedupe onto a
// live job, answer from the result cache, or enqueue — all under one lock,
// so N concurrent submissions of one spec create exactly one job.
func (s *Server) submit(req JobRequest) (JobStatus, int, error) {
	spec, err := resolveRequest(req)
	if err != nil {
		return JobStatus{}, http.StatusBadRequest, err
	}
	id := fmt.Sprintf("%016x", spec.hash)

	s.mu.Lock()
	if existing, ok := s.jobs[id]; ok {
		st := existing.status()
		switch st.State {
		case stateQueued, stateRunning:
			s.mu.Unlock()
			st.Deduped = true
			return st, http.StatusOK, nil
		case stateDone:
			s.mu.Unlock()
			s.cacheHits.Add(1)
			st.Cached = true
			if st.Runtime != nil {
				st.Runtime.ResultCacheHit = true
			}
			return st, http.StatusOK, nil
		}
		// Failed or canceled: fall through and replace with a fresh run.
	}
	if s.queued >= s.cfg.QueueSize {
		s.mu.Unlock()
		return JobStatus{}, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d jobs waiting); retry later", s.cfg.QueueSize)
	}
	j := s.newJob(spec, req)
	s.jobs[id] = j
	s.mu.Unlock()

	// Durability before acknowledgment: the request must be on disk
	// before the 202 leaves, or a crash could lose an accepted job.
	if err := s.persistRequest(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		return JobStatus{}, http.StatusInternalServerError, fmt.Errorf("persisting job: %w", err)
	}

	s.mu.Lock()
	s.pushLocked(j)
	s.mu.Unlock()
	return j.status(), http.StatusAccepted, nil
}

// cancel implements DELETE /v1/jobs/{id}.
func (s *Server) cancel(j *Job) (JobStatus, int) {
	j.mu.Lock()
	switch j.state {
	case stateQueued:
		// Settle it here; the runner skips settled jobs when it pops them.
		j.state = stateCanceled
		j.errMsg = "canceled while queued"
		j.mu.Unlock()
		s.mu.Lock()
		// Drop it from the heap — unless a runner popped it (and did the
		// queued-- accounting) in the window since the state flipped.
		for i, q := range s.queue {
			if q == j {
				heap.Remove(&s.queue, i)
				s.queued--
				break
			}
		}
		s.mu.Unlock()
		j.events.append("result", resultEvent{ID: j.id, State: stateCanceled, Error: "canceled while queued"})
		close(j.done)
		return j.status(), http.StatusOK
	case stateRunning:
		cancel := j.cancelFn
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		// The runner observes the dead context between trial windows and
		// settles the job; the 202 reports cancellation in progress.
		return j.status(), http.StatusAccepted
	default:
		j.mu.Unlock()
		return j.status(), http.StatusConflict
	}
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP routes manually (the go directive predates method patterns in
// net/http's mux): /healthz, /v1/presets, /v1/jobs, /v1/jobs/{id}[/result|/events].
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		s.handleHealthz(w, r)
	case r.URL.Path == "/v1/presets":
		s.handlePresets(w, r)
	case r.URL.Path == "/v1/jobs":
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			s.handleList(w, r)
		default:
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		}
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		s.handleJob(w, r)
	default:
		httpError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %s", r.URL.Path))
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parsing job request: %w", err))
		return
	}
	st, code, err := s.submit(req)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Deterministic listing order: by id.
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	statuses := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

// handleJob dispatches /v1/jobs/{id}, /v1/jobs/{id}/result and
// /v1/jobs/{id}/events.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.status())
	case sub == "" && r.Method == http.MethodDelete:
		st, code := s.cancel(j)
		writeJSON(w, code, st)
	case sub == "result" && r.Method == http.MethodGet:
		s.handleResult(w, j)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleEvents(w, r, j)
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on %s", r.Method, r.URL.Path))
	}
}

// handleResult serves the finished document verbatim — the bytes the
// engine rendered, cached or fresh, identical either way.
func (s *Server) handleResult(w http.ResponseWriter, j *Job) {
	j.mu.Lock()
	state, doc, errMsg := j.state, j.result, j.errMsg
	j.mu.Unlock()
	switch state {
	case stateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(doc)
	case stateFailed, stateCanceled:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", j.id, state, errMsg))
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; result not ready", j.id, state))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	s.mu.Lock()
	queued := s.queued
	running := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == stateRunning {
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"queued":     queued,
		"running":    running,
		"jobs_run":   s.jobsRun.Load(),
		"cache_hits": s.cacheHits.Load(),
	})
}

// PresetEntry is one registry listing row.
type PresetEntry struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Scenarios   int    `json:"scenarios,omitempty"`
	Points      int    `json:"points,omitempty"`
	Goal        string `json:"goal,omitempty"`
	Objective   string `json:"objective,omitempty"`
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var presets, suites, sweeps, adaptives []PresetEntry
	for _, n := range engine.Presets() {
		sc, _ := engine.Preset(n)
		presets = append(presets, PresetEntry{Name: n, Description: sc.Description})
	}
	for _, n := range engine.Suites() {
		scenarios, _ := engine.Suite(n)
		suites = append(suites, PresetEntry{Name: n, Scenarios: len(scenarios)})
	}
	for _, n := range engine.SweepPresets() {
		sp, _ := engine.SweepPreset(n)
		sweeps = append(sweeps, PresetEntry{Name: n, Description: sp.Description, Points: sp.Points()})
	}
	for _, n := range engine.AdaptivePresets() {
		ap, _ := engine.AdaptivePreset(n)
		adaptives = append(adaptives, PresetEntry{Name: n, Description: ap.Description, Goal: ap.Goal, Objective: ap.Objective})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"presets":  presets,
		"suites":   suites,
		"sweeps":   sweeps,
		"adaptive": adaptives,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
