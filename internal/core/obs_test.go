package core

import (
	"bytes"
	"testing"
	"time"

	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// obsOpts returns deterministic search options: a fixed iteration
// budget instead of a wall-clock one, so two runs do identical work.
func obsOpts() Options {
	return Options{
		TimeBudget:    time.Hour, // effectively off; MaxIterations bounds the run
		StageCounts:   []int{1, 2, 4},
		MaxIterations: 6,
		Seed:          7,
	}
}

func TestSearchTraceDeterministic(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)

	runOnce := func() []byte {
		tr := obs.NewJSONLTracer()
		opts := obsOpts()
		opts.Tracer = tr
		if _, err := Search(g, cl, opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different traces:\n%s\nvs\n%s", a, b)
	}
}

func TestSearchTraceEventFields(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	tr := obs.NewJSONLTracer()
	opts := obsOpts()
	opts.Tracer = tr
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != res.Iterations {
		t.Errorf("trace has %d events for %d iterations", len(evs), res.Iterations)
	}
	improvements := 0
	for _, ev := range evs {
		if ev.StageCount != 1 && ev.StageCount != 2 && ev.StageCount != 4 {
			t.Errorf("event for unsearched stage count %d", ev.StageCount)
		}
		if ev.Iter < 1 || ev.Iter > opts.MaxIterations {
			t.Errorf("iter %d outside [1, %d]", ev.Iter, opts.MaxIterations)
		}
		if ev.Improved {
			improvements++
			if ev.Primitive == "" {
				t.Error("improving iteration has no primitive")
			}
			if ev.Hops < 1 || ev.Hops > 7 {
				t.Errorf("hops = %d outside [1, 7]", ev.Hops)
			}
		}
		if ev.CompProportion < 0 || ev.CompProportion > 1 ||
			ev.CommProportion < 0 || ev.CommProportion > 1 ||
			ev.MemProportion < 0 || ev.MemProportion > 1 {
			t.Errorf("proportions outside [0,1]: %+v", ev)
		}
		if ev.Estimated < 0 || ev.DedupHits < 0 || ev.Backtracks < 0 {
			t.Errorf("negative tallies: %+v", ev)
		}
		if ev.BestScore <= 0 {
			t.Errorf("BestScore = %v, want > 0", ev.BestScore)
		}
	}
	if improvements == 0 {
		t.Error("no improving iterations traced in a fresh search")
	}
}

func TestSearchMetricsRegistry(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	reg := obs.NewRegistry()
	opts := obsOpts()
	opts.Metrics = reg
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	est := reg.Counter(obs.CandidatesEstimatedTotal).Value()
	if est != int64(res.Explored) {
		t.Errorf("candidates counter %d != Explored %d", est, res.Explored)
	}
	if got := reg.Counter(obs.IterationsTotal).Value(); got != int64(res.Iterations) {
		t.Errorf("iterations counter %d != Iterations %d", got, res.Iterations)
	}
	hits := reg.Counter(obs.StageCacheHitsTotal).Value()
	misses := reg.Counter(obs.StageCacheMissesTotal).Value()
	if misses <= 0 {
		t.Error("stage cache miss snapshot not mirrored")
	}
	if hits <= 0 {
		t.Error("stage cache hit snapshot not mirrored (uniform layers should hit)")
	}
}

// TestStageCacheCountersAddEachSearch runs three searches into one
// registry — two on a model of their own each, then the first model's
// again — and holds each stage-cache counter to the sum of what the
// searches looked up: the two models' lifetime counts. A counter set to
// one model's lifetime, or added it whole, reads otherwise.
func TestStageCacheCountersAddEachSearch(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	reg := obs.NewRegistry()
	big, small := perfmodel.New(g, cl, 7), perfmodel.New(g, cl, 7)
	for _, pm := range []*perfmodel.Model{big, small, big} {
		opts := obsOpts()
		opts.Metrics, opts.Model = reg, pm
		if pm == small {
			opts.StageCounts = []int{2}
		}
		if _, err := Search(g, cl, opts); err != nil {
			t.Fatal(err)
		}
	}
	bh, bm := big.StageCacheStats()
	sh, sm := small.StageCacheStats()
	if bh == 0 || sm == 0 {
		t.Fatalf("the searches looked up too little to tell: %d/%d and %d/%d hits/misses", bh, bm, sh, sm)
	}
	if got, want := reg.Counter(obs.StageCacheHitsTotal).Value(), int64(bh+sh); got != want {
		t.Errorf("hits counter %d, want %d + %d = %d", got, bh, sh, want)
	}
	if got, want := reg.Counter(obs.StageCacheMissesTotal).Value(), int64(bm+sm); got != want {
		t.Errorf("misses counter %d, want %d + %d = %d", got, bm, sm, want)
	}
}

func TestSearchAuditorClean(t *testing.T) {
	// Every estimate produced by a real search must satisfy the
	// resource-accounting invariants — this is the tripwire that makes
	// bucket mis-attribution a test failure instead of a silent
	// Heuristic-2 skew.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	a := obs.NewAuditor()
	opts := obsOpts()
	opts.Tracer = a
	if _, err := Search(g, cl, opts); err != nil {
		t.Fatal(err)
	}
	if a.Checked() == 0 {
		t.Fatal("auditor saw no estimates")
	}
	if err := a.Err(); err != nil {
		t.Errorf("breakdown violations in a real search: %v\nfirst few: %v",
			err, a.Violations()[:min(3, len(a.Violations()))])
	}
}

func TestSearchNilObserversUnchanged(t *testing.T) {
	// The zero-overhead contract's behavioral half: observers must not
	// change the search outcome.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	plain, err := Search(g, cl, obsOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := obsOpts()
	opts.Tracer = obs.MultiTracer(obs.NewJSONLTracer(), obs.NewAuditor())
	opts.Metrics = obs.NewRegistry()
	traced, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.Score != traced.Best.Score || plain.Explored != traced.Explored {
		t.Errorf("observers changed the search: score %v vs %v, explored %d vs %d",
			plain.Best.Score, traced.Best.Score, plain.Explored, traced.Explored)
	}
}
