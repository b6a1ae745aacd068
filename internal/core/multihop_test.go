package core

import (
	"testing"

	"aceso/internal/config"
	"aceso/internal/model"
	"aceso/internal/obs"
)

func TestAttachRecomputeFixesOOM(t *testing.T) {
	g, _ := model.GPT3("2.6B")
	s := testSearcher(t, g, 8)
	// A 1-stage full-dp config on 8 GPUs is far over memory.
	cfg := mustBalanced(t, g, 8, 1, 8)
	for j := range cfg.Stages[0].Ops {
		cfg.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 8, Dim: 0}
	}
	if s.estimate(nil, cfg).Feasible {
		t.Skip("config unexpectedly feasible; OOM setup needed")
	}
	fixed := attachOn(s, cfg)
	if fixed.Hash() == cfg.Hash() {
		t.Fatal("attachRecompute changed nothing on an OOM config")
	}
	if fixed.RecomputedOps(0) == 0 {
		t.Error("no ops recomputed")
	}
	// It may not fully fix very large models, but memory must drop.
	if s.estimate(nil, fixed).PeakMem >= s.estimate(nil, cfg).PeakMem {
		t.Error("attachRecompute did not reduce memory")
	}
}

func TestAttachRecomputeNoopWhenFeasible(t *testing.T) {
	g, _ := model.GPT3("350M")
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 1)
	if !s.estimate(nil, cfg).Feasible {
		t.Fatal("setup should be feasible")
	}
	if got := attachOn(s, cfg); got.Hash() != cfg.Hash() {
		t.Error("attachRecompute modified a feasible config")
	}
}

func TestPopBestUnexploredDeterministic(t *testing.T) {
	g := model.Uniform(8, 1e10, 1e6, 1e5, 64)
	s := testSearcher(t, g, 4)
	mk := func(mbs int, score float64) {
		c, err := config.Balanced(g, 4, 2, mbs)
		if err != nil {
			t.Fatal(err)
		}
		s.pool[c.Key()] = Candidate{Config: c, Score: score, key: c.Key()}
	}
	mk(1, 3)
	mk(2, 1)
	mk(4, 2)
	first := s.popBestUnexplored()
	if first.MicroBatch != 2 {
		t.Errorf("popped mbs=%d, want 2 (lowest score)", first.MicroBatch)
	}
	second := s.popBestUnexplored()
	if second.MicroBatch != 4 {
		t.Errorf("popped mbs=%d, want 4", second.MicroBatch)
	}
	if s.popBestUnexplored() == nil || s.popBestUnexplored() != nil {
		t.Error("pool should drain to empty")
	}
}

func TestMultiHopFindsImprovement(t *testing.T) {
	// Start from a deliberately imbalanced 2-stage split; the
	// bottleneck stage should be improvable within a hop or two.
	g := model.Uniform(32, 5e11, 1e7, 1e6, 64)
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 4)
	// Skew: stage 0 gets 26 ops, stage 1 only 6.
	cfg.Stages[0].End = 26
	cfg.Stages[1].Start = 26
	cfg.Stages[0].Ops = make([]config.OpSetting, 26)
	cfg.Stages[1].Ops = make([]config.OpSetting, 6)
	for j := range cfg.Stages[0].Ops {
		cfg.Stages[0].Ops[j] = config.OpSetting{TP: 2, DP: 1, Dim: 0}
	}
	for j := range cfg.Stages[1].Ops {
		cfg.Stages[1].Ops[j] = config.OpSetting{TP: 2, DP: 1, Dim: 0}
	}
	if err := cfg.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	initScore := s.score(cfg, s.estimate(nil, cfg))
	bns := Bottlenecks(s.estimate(nil, cfg))
	if bns[0].Stage != 0 {
		t.Fatalf("expected stage 0 to be the bottleneck, got %d", bns[0].Stage)
	}
	found, hops, prim := s.multiHop(cfg, s.estimate(nil, cfg), bns[0], 0, initScore)
	if found == nil {
		t.Fatal("multiHop found no improvement on a grossly imbalanced pipeline")
	}
	if prim == "" {
		t.Error("improvement reported with no primitive name")
	}
	if hops < 1 || hops > s.opts.MaxHops {
		t.Errorf("hops = %d, want within [1, %d]", hops, s.opts.MaxHops)
	}
	if got := s.score(found, s.estimate(nil, found)); got >= initScore {
		t.Errorf("claimed improvement scores %v ≥ initial %v", got, initScore)
	}
}

func TestMultiHopRespectsMaxHops(t *testing.T) {
	g := model.Uniform(16, 1e10, 1e6, 1e5, 64)
	s := testSearcher(t, g, 4)
	s.opts.MaxHops = 0 // no hops allowed at all
	cfg := mustBalanced(t, g, 4, 2, 4)
	bns := Bottlenecks(s.estimate(nil, cfg))
	if found, _, _ := s.multiHop(cfg, s.estimate(nil, cfg), bns[0], 0, 1e30); found != nil {
		t.Error("multiHop produced a result with MaxHops=0")
	}
}

func TestMultiHopDeadlineCutoff(t *testing.T) {
	g, _ := model.GPT3("350M")
	s := testSearcher(t, g, 4)
	done := make(chan struct{})
	close(done)
	s.done = done // already expired
	cfg := mustBalanced(t, g, 4, 2, 1)
	bns := Bottlenecks(s.estimate(nil, cfg))
	if found, _, _ := s.multiHop(cfg, s.estimate(nil, cfg), bns[0], 0, 1e30); found != nil {
		t.Error("expired search still explored")
	}
}

func TestVisitedDedupAcrossHops(t *testing.T) {
	// Every config estimated as new during a short search has a key of
	// its own, and explored counts each once with the trials a bound
	// rejected unestimated (invariant 7: the search never revisits).
	g, _ := model.GPT3("350M")
	bothTrialPaths(t, func(exact bool, reg *obs.Registry) {
		s := testSearcher(t, g, 4)
		s.opts.MaxIterations = 3
		s.met = newSearchMeters(reg)
		audit := newEstimateAuditor(t, g, 4)
		s.tracer = audit
		s.run(mustBalanced(t, g, 4, 2, 1))
		if rejected := rejectedByBound(reg); audit.estimated+rejected != s.explored || s.explored == 0 {
			t.Errorf("exact trials %v: audited %d estimates and the bound rejected %d, but explored counted %d",
				exact, audit.estimated, rejected, s.explored)
		}
	})
}
