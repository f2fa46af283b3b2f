package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into the program. Spans of one operation share
// Op; Parent names the span that caused this one (0 for a root).
type Span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     int64 // ns since the tracer's origin
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory for the run; it is safe for concurrent
// use. A nil *Tracer records nothing, so untraced code paths pay one nil
// check per boundary.
type Tracer struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now(), spans: make([]Span, 0, 1<<16)} }

// NewID reserves a span identifier (for a span whose children are
// recorded before it ends).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Now is the tracer clock in nanoseconds.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// Record stores a finished span.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span name, the self time (µs) of every span of
// that name: its duration minus the durations of its child spans.
func SelfTimes(spans []Span) map[string][]float64 {
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.Dur()-child[s.ID])/1e3)
	}
	return out
}
