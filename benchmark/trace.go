package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer: its name (the
// layer metric prefix, e.g. "coverage.analyze"), the span that caused it,
// its interval relative to the tracer's start, and a work count (trials,
// bytes, calls) recorded at the same boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced run. A nil or disabled
// tracer records nothing, so the untraced run pays one branch per call.
type tracer struct {
	on    bool
	start time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, start: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := int64(time.Since(t.start))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and records its work count.
func (t *tracer) end(id int, n int64) {
	if t == nil || !t.on || id == 0 {
		return
	}
	now := int64(time.Since(t.start))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONLines dumps every span, one JSON object a line.
func (t *tracer) writeJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus its
// children's. The benchmark opens a span's children one after another on
// the span's own goroutine, so they never overlap.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerTotal is one span name's total self time (ns), work count and
// span count.
type layerTotal struct {
	selfNS int64
	n      int64
	spans  int64
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for _, s := range spans {
		lt := out[s.Name]
		lt.selfNS += self[s.ID]
		lt.n += s.N
		lt.spans++
		out[s.Name] = lt
	}
	return out
}

// memCounters reads the runtime's cumulative allocation and GC counters.
type memCounters struct {
	allocBytes, allocObjects, gcCycles uint64
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readMem samples the counters. The runtime/metrics read does not stop the
// world, so it is cheap enough to take around single calls.
func readMem() memCounters {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return memCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
	}
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{
		allocBytes:   m.allocBytes - o.allocBytes,
		allocObjects: m.allocObjects - o.allocObjects,
		gcCycles:     m.gcCycles - o.gcCycles,
	}
}
