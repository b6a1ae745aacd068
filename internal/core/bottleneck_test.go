package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

func TestBottleneckRankingByTime(t *testing.T) {
	// A skewed model split into equal op-count stages leaves the
	// heaviest ops (the end) in the last stage; Heuristic-1 must rank
	// it first when everything fits in memory.
	g := model.Skewed(16, 5e10, 1e6, 1e5, 2.0, 64)
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 4)
	// Force an op-count-balanced (not FLOPs-balanced) split.
	cfg.Stages[0].End = 8
	cfg.Stages[1].Start = 8
	cfg.Stages[0].Ops = cfg.Stages[0].Ops[:8]
	for len(cfg.Stages[1].Ops) < 8 {
		cfg.Stages[1].Ops = append(cfg.Stages[1].Ops, cfg.Stages[1].Ops[0])
	}
	if err := cfg.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	est := s.estimate(nil, cfg)
	if !est.Feasible {
		t.Fatal("test setup should be feasible")
	}
	bns := Bottlenecks(est)
	if len(bns) != 2 {
		t.Fatalf("got %d bottlenecks, want 2", len(bns))
	}
	if bns[0].Stage != 1 {
		t.Errorf("top bottleneck = stage %d, want 1 (heavier)", bns[0].Stage)
	}
	for _, r := range bns[0].Resources {
		if r == Mem {
			t.Error("feasible, low-pressure config should not list Mem")
		}
	}
}

func TestBottleneckOOMPrioritizesMemory(t *testing.T) {
	g, _ := model.GPT3("13B")
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 1)
	est := s.estimate(nil, cfg)
	if est.Feasible {
		t.Skip("13B unexpectedly fits; test requires OOM")
	}
	bns := Bottlenecks(est)
	if bns[0].Resources[0] != Mem {
		t.Errorf("OOM bottleneck resources = %v, want Mem first", bns[0].Resources)
	}
	// Ranked by memory: first stage listed must have the largest peak.
	worst := bns[0].Stage
	for i := range est.Stages {
		if est.Stages[i].PeakMem > est.Stages[worst].PeakMem {
			t.Errorf("stage %d has more memory than ranked-first stage %d", i, worst)
		}
	}
}

func TestBottleneckResourceOrderByProportion(t *testing.T) {
	g, _ := model.GPT3("350M")
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 1)
	est := s.estimate(nil, cfg)
	bns := Bottlenecks(est)
	for _, bn := range bns {
		// Comp and Comm must both always be present, in some order.
		hasComp, hasComm := false, false
		for _, r := range bn.Resources {
			switch r {
			case Comp:
				hasComp = true
			case Comm:
				hasComm = true
			}
		}
		if !hasComp || !hasComm {
			t.Errorf("stage %d resources = %v, want both comp and comm", bn.Stage, bn.Resources)
		}
	}
}

func TestProportion(t *testing.T) {
	if got := proportion(2, 8); got != 0.25 {
		t.Errorf("proportion(2,8) = %v", got)
	}
	if got := proportion(1, 0); got != 0 {
		t.Errorf("proportion(1,0) = %v, want 0", got)
	}
}

func TestResourceString(t *testing.T) {
	if Comp.String() != "comp" || Comm.String() != "comm" || Mem.String() != "mem" {
		t.Error("Resource.String mismatch")
	}
	if Resource(42).String() == "" {
		t.Error("unknown resource should stringify")
	}
}

// bottleneckChecker compares, for every estimate a search produces,
// the allocation-free top-bottleneck path multiHop branches on with
// the head of the full ranking run starts from.
type bottleneckChecker struct {
	t  *testing.T
	mu sync.Mutex
	tr trial // the buffer topBottleneck builds into

	feasible, infeasible, pressured int
}

func (c *bottleneckChecker) OnIteration(obs.IterationEvent) {}

func (c *bottleneckChecker) OnEstimate(_ *config.Config, est *perfmodel.Estimate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := Bottlenecks(est)[0]
	got, ok := topBottleneck(&c.tr, est)
	if !ok || got.Stage != want.Stage || !reflect.DeepEqual(got.Resources, want.Resources) {
		c.t.Errorf("topBottleneck = stage %d %v (ok %v), Bottlenecks[0] = stage %d %v",
			got.Stage, got.Resources, ok, want.Stage, want.Resources)
	}
	switch {
	case !est.Feasible:
		c.infeasible++
	case want.Resources[len(want.Resources)-1] == Mem:
		c.pressured++
	default:
		c.feasible++
	}
}

func TestTopBottleneckMatchesBottlenecks(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	check := &bottleneckChecker{t: t}
	// Released keys estimated again are checked too.
	storeHooks.again = func(e *perfmodel.Estimate, first bool) {
		if !first {
			check.OnEstimate(nil, e)
		}
	}
	defer func() { storeHooks.again = nil }()
	if _, err := Search(g, cl, Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: 1, Tracer: check}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d feasible, %d infeasible, %d feasible above 0.9× capacity", check.feasible, check.infeasible, check.pressured)
	if check.feasible == 0 || check.infeasible == 0 || check.pressured == 0 {
		t.Error("the search did not cover all three orderings")
	}
}
