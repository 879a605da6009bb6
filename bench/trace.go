package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"dualcube/internal/machine"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one top-level call share Trace, the ID of its root span;
// Parent is 0 for a root. Times are nanoseconds since the tracer started.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[id-1] is the span with that ID
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span named name under parent (0 for a root) and returns its
// ID, 0 on a nil tracer.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
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

// durations returns, per span name, the span durations in microseconds.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur().Nanoseconds())/1e3)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeSpans stores spans as one JSON array at path.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stepKinds names the machine.StepKind values in per-layer metric names.
var stepKinds = [...]string{
	machine.StepClusterDim:   "cluster_dim",
	machine.StepCrossHop:     "cross_hop",
	machine.StepRecDim:       "rec_dim",
	machine.StepBitDim:       "bit_dim",
	machine.StepLocalCombine: "local_combine",
}

// stepClock decorates a direct kernel to time the executor's passes from
// outside it. The executor calls Produce, Absorb and Local node by node, and
// one pass is a run of calls with the same (method, step); the clock reads
// the time only when that pair changes and charges the elapsed segment to
// the StepKind of the step the segment served. Absorb(k) finishes the
// exchange of step k, so it is charged to step k's kind like Produce(k).
// The decorator forwards every call unchanged, so the decorated run computes
// the same outputs and Stats (TestStepClockParity). It assumes the serial
// executor, which runs one node at a time.
type stepClock[T any] struct {
	inner machine.DirectKernel[T]
	steps []machine.Step
	open  bool
	key   int // method<<24 | step of the open segment
	kind  machine.StepKind
	since time.Time
	sum   [len(stepKinds)]time.Duration
}

func newStepClock[T any](inner machine.DirectKernel[T], sch *machine.Schedule) *stepClock[T] {
	return &stepClock[T]{inner: inner, steps: sch.Steps}
}

func (c *stepClock[T]) mark(method, step int) {
	key := method<<24 | step
	if c.open && key == c.key {
		return
	}
	now := time.Now()
	if c.open {
		c.sum[c.kind] += now.Sub(c.since)
	}
	c.open, c.key, c.kind, c.since = true, key, c.steps[step].Kind, now
}

// stop closes the open segment; call it when Execute returns.
func (c *stepClock[T]) stop() {
	if c.open {
		c.sum[c.kind] += time.Since(c.since)
		c.open = false
	}
}

func (c *stepClock[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, T) {
	c.mark(0, k)
	return c.inner.Produce(dc, k, u)
}

func (c *stepClock[T]) Absorb(dc *machine.DirectCtx, k, u int, v T) {
	c.mark(1, k)
	c.inner.Absorb(dc, k, u, v)
}

func (c *stepClock[T]) Local(dc *machine.DirectCtx, k, u int) {
	c.mark(2, k)
	c.inner.Local(dc, k, u)
}
