package server

import (
	"bytes"
	"container/heap"
	"context"
	"errors"

	"repro/internal/engine"
	"repro/internal/obs"
)

// jobHeap orders the queue: higher priority first, submission order within
// a priority. container/heap over this keeps pop O(log n) however many
// jobs a burst enqueues.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// runner is one job-executing goroutine. The engine's worker pool is the
// concurrency mechanism for trials; runners only decide how many JOBS run
// at once (default 1: one shared pool, jobs queue behind it).
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		s.queued--
		s.mu.Unlock()
		if s.gate != nil {
			// Test hook: hold the runner here so tests can fill the queue
			// deterministically.
			<-s.gate
		}
		s.run(j)
	}
}

// run executes one popped job to a terminal state.
func (s *Server) run(j *Job) {
	j.mu.Lock()
	if j.state != stateQueued {
		// Canceled while queued: the DELETE handler already settled it.
		j.mu.Unlock()
		return
	}
	j.state = stateRunning
	ctx, cancel := context.WithCancel(context.Background())
	j.cancelFn = cancel
	queueWaitMS := float64(nowNS()-j.submitNS) / 1e6
	j.mu.Unlock()
	defer cancel()

	doc, metrics, err := s.execute(ctx, j, queueWaitMS)
	s.jobsRun.Add(1)

	j.mu.Lock()
	j.metrics = metrics
	switch {
	case err == nil:
		j.state = stateDone
		j.result = doc
	case errors.Is(err, engine.ErrCanceled):
		j.state = stateCanceled
		j.errMsg = err.Error()
	default:
		j.state = stateFailed
		j.errMsg = err.Error()
	}
	state, errMsg := j.state, j.errMsg
	j.mu.Unlock()

	if err == nil {
		s.persistResult(j, doc)
		s.retainDone(j)
	}
	// Terminal event before the done close: followers that observe the
	// closed channel are guaranteed to find this event in the ring.
	j.events.append("result", resultEvent{ID: j.id, State: state, Error: errMsg})
	close(j.done)
}

// execute runs the job's spec through the engine and renders the result
// document — the same document shape, byte for byte, that ndscen writes
// for the equivalent invocation.
func (s *Server) execute(ctx context.Context, j *Job, queueWaitMS float64) ([]byte, obs.RunMetrics, error) {
	var m obs.RunMetrics
	opt := engine.Options{
		Workers:          s.cfg.Workers,
		Trials:           j.spec.trials,
		Exact:            j.spec.exact,
		Context:          ctx,
		Metrics:          &m,
		ProgressInterval: s.cfg.ProgressInterval,
		Progress: func(p obs.Progress) {
			j.events.append("progress", p)
		},
		PointResult: func(idx int, agg engine.Aggregate) {
			j.events.append("point", pointEvent{Index: idx, Aggregate: agg})
		},
	}

	if j.spec.adaptive {
		res, err := engine.RunAdaptive(j.spec.adaptiveSpec, opt)
		if err != nil {
			return nil, m, err
		}
		m.QueueWaitMS = queueWaitMS
		res.Runtime = &m
		var buf bytes.Buffer
		if err := engine.WriteAdaptiveJSON(&buf, res); err != nil {
			return nil, m, err
		}
		return buf.Bytes(), m, nil
	}

	var aggs []engine.Aggregate
	var err error
	if dir := s.engineJournalDir(j); dir != "" {
		aggs, err = engine.RunJournaled(j.spec.label, j.spec.scenarios, opt, dir)
	} else {
		aggs, err = engine.RunSuite(j.spec.scenarios, opt)
	}
	if err != nil {
		return nil, m, err
	}
	m.QueueWaitMS = queueWaitMS
	res := engine.SuiteResult{Suite: j.spec.label, Scenarios: aggs, Runtime: &m}
	var buf bytes.Buffer
	if err := engine.WriteJSON(&buf, res); err != nil {
		return nil, m, err
	}
	return buf.Bytes(), m, nil
}

// retainDone records a completed job in the done-LRU and evicts past the
// cache capacity: evicted jobs disappear from the jobs map entirely (their
// id 404s afterwards), bounding resident result bytes.
func (s *Server) retainDone(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.CacheEntries {
		victim := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if v, ok := s.jobs[victim]; ok && v != j {
			delete(s.jobs, victim)
		}
	}
}
