package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// JSONLTracer collects iteration events and renders them as JSON Lines
// in a deterministic order. Events arrive from the per-pipeline-depth
// workers in nondeterministic interleavings, so the tracer buffers
// them and WriteTo sorts by (stage count, iteration index) — for a
// fixed seed and iteration budget the emitted bytes are identical
// across runs (the golden determinism test pins this).
//
// The batch constructor (NewJSONLTracer) buffers without bound — right
// for a single search whose whole trace is the artifact, wrong for a
// long-running daemon, where an unbounded buffer is a slow memory
// leak. NewBoundedJSONLTracer caps the buffer as a ring of the most
// recent events; acesod uses it for its rolling /v1/trace window.
type JSONLTracer struct {
	mu     sync.Mutex
	events []IterationEvent
	// cap bounds the buffer (0 = unbounded batch mode). When full the
	// buffer becomes a ring: next is the overwrite cursor and arrival
	// order is events[next:] ++ events[:next].
	cap     int
	next    int
	dropped int64
}

// NewJSONLTracer returns an empty, unbounded JSONL trace collector
// (the batch path: one search, whole trace retained, deterministic
// output bytes).
func NewJSONLTracer() *JSONLTracer { return &JSONLTracer{} }

// NewBoundedJSONLTracer returns a collector that retains only the most
// recent capacity events, overwriting the oldest once full (and
// counting what it dropped). The deterministic-sort contract still
// applies to whatever is retained, but which events are retained
// depends on arrival order — bounded mode trades the batch path's
// byte-determinism for a hard memory cap.
func NewBoundedJSONLTracer(capacity int) *JSONLTracer {
	if capacity < 1 {
		capacity = 1
	}
	return &JSONLTracer{cap: capacity}
}

// OnIteration implements Tracer.
func (t *JSONLTracer) OnIteration(ev IterationEvent) {
	t.mu.Lock()
	if t.cap > 0 && len(t.events) == t.cap {
		t.events[t.next] = ev
		t.next = (t.next + 1) % t.cap
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Dropped returns how many events a bounded tracer has overwritten
// (always 0 in batch mode).
func (t *JSONLTracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the collected events in the deterministic emission
// order (stage count, then iteration index). In bounded mode only the
// retained ring window is returned.
func (t *JSONLTracer) Events() []IterationEvent {
	t.mu.Lock()
	out := make([]IterationEvent, 0, len(t.events))
	// Reconstruct arrival order first so the stable sort's equal-key
	// order is arrival order in both modes.
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	t.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].StageCount != out[b].StageCount {
			return out[a].StageCount < out[b].StageCount
		}
		return out[a].Iter < out[b].Iter
	})
	return out
}

// WriteTo emits the trace as JSON Lines: one IterationEvent object per
// line, deterministically ordered.
func (t *JSONLTracer) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	enc := json.NewEncoder(cw) // Encode appends the newline JSONL wants
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// countWriter counts bytes for the io.WriterTo contract.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
