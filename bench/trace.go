package main

// In-memory spans, recorded from the benchmark's own files around the
// calls it makes into each layer and written out once at exit. Nothing
// inside the program is instrumented: a span's children are the calls
// the benchmark itself nests inside it (the HTTP handler inside a
// client round trip, a layer probe inside its sweep).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Parent is the ID of the span that caused it
// (0 = none); spans of one op share Op. N is how many calls a probe
// span covers (1 for a single call).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	N       int     `json:"n"`
	SelfS   float64 `json:"self_s"`
	ended   bool
	startAt time.Time
}

// tracer collects spans. A nil *tracer records nothing, so the
// untraced run pays one pointer check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, N: 1, startAt: now})
	return id
}

// end closes span id; n is the number of calls it covered.
func (t *tracer) end(id, n int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.StartS = s.startAt.Sub(t.t0).Seconds()
	s.EndS = now.Sub(t.t0).Seconds()
	s.N = n
	s.ended = true
}

// mark returns how many spans have been opened; when all of them are
// closed, finish()[mark:] is the spans opened afterwards.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// finish computes every span's self time — its duration minus the part
// of that interval its children cover — and returns the closed spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i := range t.spans {
		if s := &t.spans[i]; s.ended && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]span, 0, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if !s.ended {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartS < t.spans[kids[b]].StartS })
		covered, edge := 0.0, s.StartS
		for _, k := range kids {
			c := &t.spans[k]
			lo, hi := max(c.StartS, edge), min(c.EndS, s.EndS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfS = s.EndS - s.StartS - covered
		out = append(out, *s)
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.SelfS
	}
	return out
}

// checkNesting reports the first span that is not inside its parent or
// whose self time is negative.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	const eps = 1e-9
	for _, s := range spans {
		if s.EndS < s.StartS || s.SelfS < -eps {
			return fmt.Errorf("span %d (%s): start %g end %g self %g", s.ID, s.Name, s.StartS, s.EndS, s.SelfS)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d missing", s.ID, s.Name, s.Parent)
		}
		if s.StartS < p.StartS-eps || s.EndS > p.EndS+eps {
			return fmt.Errorf("span %d (%s) [%g,%g] outside parent %d (%s) [%g,%g]",
				s.ID, s.Name, s.StartS, s.EndS, p.ID, p.Name, p.StartS, p.EndS)
		}
	}
	return nil
}

// traceFile is what out/trace-<workload>.json holds.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Spans       []span             `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	raw, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
