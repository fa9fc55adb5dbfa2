package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// JobRequest is the POST /v1/jobs body: what to run (a registry name or an
// inline spec) plus execution options. Exactly one spec source applies per
// kind; unknown JSON keys are rejected, like ndscen's spec files.
type JobRequest struct {
	// Kind selects the job shape: "scenario" (one preset or inline
	// scenario list), "suite" (a named suite), "sweep" (a named sweep
	// preset or inline SweepSpec), or "adaptive" (a named adaptive preset
	// or inline AdaptiveSpec).
	Kind string `json:"kind"`

	// Name is the registry name (preset, suite, sweep or adaptive preset)
	// when the spec is not inline.
	Name string `json:"name,omitempty"`

	// Scenarios is the inline spec for kind "scenario"/"suite".
	Scenarios []engine.Scenario `json:"scenarios,omitempty"`

	// Sweep is the inline spec for kind "sweep".
	Sweep *engine.SweepSpec `json:"sweep,omitempty"`

	// Adaptive is the inline spec for kind "adaptive".
	Adaptive *engine.AdaptiveSpec `json:"adaptive,omitempty"`

	// Trials overrides every scenario's trial count (like -trials);
	// Exact forces the exact-analysis fast path (like -exact).
	Trials int  `json:"trials,omitempty"`
	Exact  bool `json:"exact,omitempty"`

	// Deprecated: Stream is not part of the request any more — points
	// above ~262k expected samples are quantized automatically, and a
	// "stream" key in a request body is refused as an unknown field. The
	// Go field remains, never encoded, decoded or read, only so existing
	// Go callers that inspect it still compile.
	Stream string `json:"-"`

	// Priority orders the queue: higher runs first; ties run in
	// submission order.
	Priority int `json:"priority,omitempty"`
}

// JobStatus is the status document GET /v1/jobs/{id} (and every submit
// response) returns.
type JobStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Label    string `json:"label"`
	State    string `json:"state"`
	Priority int    `json:"priority,omitempty"`
	Error    string `json:"error,omitempty"`

	// Deduped marks a submit response that attached to an already
	// queued/running job with the same canonical spec; Cached marks one
	// answered from the result cache without running anything.
	Deduped bool `json:"deduped,omitempty"`
	Cached  bool `json:"cached,omitempty"`

	// Runtime is the run's metrics record, present once the job is
	// terminal (and, for cache hits, reporting the original run with
	// ResultCacheHit set).
	Runtime *obs.RunMetrics `json:"runtime,omitempty"`
}

// Job states.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// jobSpec is a resolved, validated job: the canonical form everything
// downstream (queue, cache key, executor) works from.
type jobSpec struct {
	kind     string // the request kind
	label    string // document label: suite name, sweep name, …
	adaptive bool

	scenarios    []engine.Scenario
	adaptiveSpec engine.AdaptiveSpec

	trials int
	exact  bool

	hash uint64
}

// Job is one tracked submission. Identity IS the canonical spec hash —
// resubmitting an identical spec attaches to the existing job (queued or
// running: singleflight; done: a result-cache hit).
type Job struct {
	id       string
	spec     jobSpec
	req      JobRequest // the persisted form a journal-backed daemon resumes from
	seq      int64
	priority int
	submitNS int64

	mu      sync.Mutex
	state   string
	errMsg  string
	metrics obs.RunMetrics
	result  []byte

	cancelFn func() // set while running; aborts the engine run

	done   chan struct{} // closed on any terminal state
	events *eventBuffer
}

// terminal reports whether the job reached a final state.
func (j *Job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// status renders the job's status document.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Kind:     j.spec.kind,
		Label:    j.spec.label,
		State:    j.state,
		Priority: j.priority,
		Error:    j.errMsg,
	}
	if j.state == stateDone || j.state == stateFailed || j.state == stateCanceled {
		m := j.metrics
		st.Runtime = &m
	}
	return st
}

// decodeJobRequest is the one strict reader of a JobRequest, shared by
// the submit handler and the restart path: unknown fields and any data
// after the one JSON document are rejected.
func decodeJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobRequest{}, fmt.Errorf("trailing data after the request document")
	}
	return req, nil
}

// resolveRequest turns a request into the canonical jobSpec, resolving
// registry names and validating inline specs. Every error is a client
// error (HTTP 400).
func resolveRequest(req JobRequest) (jobSpec, error) {
	spec := jobSpec{
		kind:   req.Kind,
		trials: req.Trials,
		exact:  req.Exact,
	}
	inline := 0
	for _, set := range []bool{len(req.Scenarios) > 0, req.Sweep != nil, req.Adaptive != nil} {
		if set {
			inline++
		}
	}
	if inline > 1 {
		return jobSpec{}, fmt.Errorf("pass at most one of scenarios, sweep, adaptive")
	}
	switch req.Kind {
	case "scenario":
		switch {
		case req.Name != "":
			sc, err := engine.Preset(req.Name)
			if err != nil {
				return jobSpec{}, err
			}
			spec.scenarios, spec.label = []engine.Scenario{sc}, req.Name
		case len(req.Scenarios) > 0:
			spec.scenarios, spec.label = req.Scenarios, "inline"
		default:
			return jobSpec{}, fmt.Errorf("kind %q needs a preset name or inline scenarios", req.Kind)
		}
	case "suite":
		switch {
		case req.Name != "":
			scenarios, err := engine.Suite(req.Name)
			if err != nil {
				return jobSpec{}, err
			}
			spec.scenarios, spec.label = scenarios, req.Name
		case len(req.Scenarios) > 0:
			spec.scenarios, spec.label = req.Scenarios, "inline"
		default:
			return jobSpec{}, fmt.Errorf("kind %q needs a suite name or inline scenarios", req.Kind)
		}
	case "sweep":
		var sp engine.SweepSpec
		var err error
		switch {
		case req.Name != "":
			sp, err = engine.SweepPreset(req.Name)
			if err != nil {
				return jobSpec{}, err
			}
		case req.Sweep != nil:
			sp = *req.Sweep
		default:
			return jobSpec{}, fmt.Errorf("kind %q needs a sweep preset name or an inline sweep spec", req.Kind)
		}
		scenarios, err := sp.Expand()
		if err != nil {
			return jobSpec{}, err
		}
		spec.scenarios, spec.label = scenarios, sp.Name
	case "adaptive":
		switch {
		case req.Name != "":
			ap, err := engine.AdaptivePreset(req.Name)
			if err != nil {
				return jobSpec{}, err
			}
			spec.adaptiveSpec = ap
		case req.Adaptive != nil:
			spec.adaptiveSpec = *req.Adaptive
		default:
			return jobSpec{}, fmt.Errorf("kind %q needs an adaptive preset name or an inline adaptive spec", req.Kind)
		}
		spec.adaptive = true
		spec.label = spec.adaptiveSpec.Name
	default:
		return jobSpec{}, fmt.Errorf("unknown job kind %q (want scenario, suite, sweep or adaptive)", req.Kind)
	}
	// Validate scenarios up front, with the run options folded the way the
	// executor folds them, so a bad spec is a 400 at submit, not a failed
	// job later.
	for _, sc := range spec.scenarios {
		if spec.trials > 0 {
			sc.Trials = spec.trials
		}
		if spec.exact {
			sc.Exact = true
		}
		if sc.Exact {
			sc.Trials = 0
		}
		if err := sc.Validate(); err != nil {
			return jobSpec{}, err
		}
	}
	spec.hash = spec.canonicalHash()
	return spec, nil
}

// canonicalHash fingerprints the job's deterministic identity: the kind,
// label, execution options that change results (trials, exact), and the
// resolved spec. Workers are deliberately excluded — the engine's
// determinism contract makes results bit-identical for any worker count,
// which is exactly what lets the result cache answer across submissions
// with different pool sizes.
func (s jobSpec) canonicalHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%t\n", s.kind, s.label, s.trials, s.exact)
	if s.adaptive {
		// The adaptive spec is pure data; its canonical JSON is its
		// identity.
		blob, _ := json.Marshal(s.adaptiveSpec)
		h.Write(blob)
		return h.Sum64()
	}
	for _, sc := range s.scenarios {
		fmt.Fprintf(h, "%s|%#x|%d|%t\n", sc.Name, sc.Hash(), sc.Trials, sc.Exact)
	}
	return h.Sum64()
}
