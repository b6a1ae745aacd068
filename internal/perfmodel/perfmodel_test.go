package perfmodel

import (
	"testing"
	"testing/quick"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

func newModel(t *testing.T, g *model.Graph, devices int) *Model {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(g, hardware.DGX1V100(4).Restrict(devices), 1)
}

func balanced(t *testing.T, g *model.Graph, devices, stages, mbs int) *config.Config {
	t.Helper()
	c, err := config.Balanced(g, devices, stages, mbs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEstimateDeterministic(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 2, 1)
	a, b := m.Estimate(c), m.Estimate(c)
	if a.IterTime != b.IterTime || a.PeakMem != b.PeakMem {
		t.Errorf("Estimate not deterministic: %v/%v vs %v/%v",
			a.IterTime, a.PeakMem, b.IterTime, b.PeakMem)
	}
}

func TestSingleStageIterTime(t *testing.T) {
	// For p=1 the Eq.2 decomposition degenerates to N·(f+b)+sync.
	g := model.Uniform(8, 1e11, 1e7, 1e6, 64)
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 1, 4)
	e := m.Estimate(c)
	s := e.Stages[0]
	want := float64(e.Microbatches)*(s.FwdTime+s.BwdTime) + s.DPSync
	if diff := e.IterTime/want - 1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("IterTime = %v, want %v", e.IterTime, want)
	}
	if e.Microbatches != 16 {
		t.Errorf("Microbatches = %d, want 16", e.Microbatches)
	}
}

func TestSteadyStateLowerBound(t *testing.T) {
	// Invariant 5: iteration time ≥ N · max(f+b).
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 8)
	for _, stages := range []int{1, 2, 4} {
		c := balanced(t, g, 8, stages, 2)
		e := m.Estimate(c)
		var worst float64
		for i := range e.Stages {
			if fb := e.Stages[i].FwdTime + e.Stages[i].BwdTime; fb > worst {
				worst = fb
			}
		}
		if lb := float64(e.Microbatches) * worst; e.IterTime < lb*(1-1e-12) {
			t.Errorf("%d stages: IterTime %v below steady-state bound %v", stages, e.IterTime, lb)
		}
	}
}

func TestEq1EarlierStagesStashMore(t *testing.T) {
	// Invariant 5: with identical stages, activation pressure (and so
	// peak memory) decreases with stage index.
	g := model.Uniform(16, 1e11, 1e7, 1e7, 64)
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 4, 4)
	e := m.Estimate(c)
	for i := 1; i < 4; i++ {
		if e.Stages[i].PeakMem >= e.Stages[i-1].PeakMem {
			t.Errorf("stage %d peak (%v) should be below stage %d (%v)",
				i, e.Stages[i].PeakMem, i-1, e.Stages[i-1].PeakMem)
		}
	}
}

func TestRecomputationTradesMemoryForTime(t *testing.T) {
	// Invariant 4: recomputation never increases memory, never
	// decreases stage backward time.
	g, _ := model.GPT3("1.3B")
	m := newModel(t, g, 4)
	plain := balanced(t, g, 4, 2, 1)
	rc := plain.Clone()
	rc.MutStage(0, func(st *config.Stage) {
		for j := range st.Ops {
			st.Ops[j].Recompute = true
		}
	})
	pe, re := m.Estimate(plain), m.Estimate(rc)
	if re.Stages[0].PeakMem >= pe.Stages[0].PeakMem {
		t.Errorf("recompute peak %v should be below plain %v",
			re.Stages[0].PeakMem, pe.Stages[0].PeakMem)
	}
	if re.Stages[0].BwdTime <= pe.Stages[0].BwdTime {
		t.Errorf("recompute bwd %v should exceed plain %v",
			re.Stages[0].BwdTime, pe.Stages[0].BwdTime)
	}
	if re.Stages[0].Recomp <= 0 {
		t.Error("Recomp share not recorded")
	}
	// Stage 1 untouched.
	if re.Stages[1].PeakMem != pe.Stages[1].PeakMem {
		t.Error("recompute in stage 0 changed stage 1 memory")
	}
}

func TestTensorParallelismReducesMemory(t *testing.T) {
	g, _ := model.GPT3("1.3B")
	m := newModel(t, g, 8)
	tp8 := balanced(t, g, 8, 1, 8) // tp=8 dp=1
	dp8 := tp8.Clone()
	dp8.MutStage(0, func(st *config.Stage) {
		for j := range st.Ops {
			st.Ops[j] = config.OpSetting{TP: 1, DP: 8, Dim: 0}
		}
	})
	te, de := m.Estimate(tp8), m.Estimate(dp8)
	if te.PeakMem >= de.PeakMem {
		t.Errorf("tp8 peak (%v) should be below dp8 peak (%v): tp shards params",
			te.PeakMem, de.PeakMem)
	}
}

func TestDataParallelSyncCost(t *testing.T) {
	g := model.Uniform(8, 1e11, 1e8, 1e6, 64)
	m := newModel(t, g, 8)
	c := balanced(t, g, 8, 1, 8)
	for j := range c.Stages[0].Ops {
		c.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 8, Dim: 0}
	}
	e := m.Estimate(c)
	if e.Stages[0].DPSync <= 0 {
		t.Error("dp=8 should incur gradient sync cost")
	}
	solo := balanced(t, g, 8, 1, 8) // tp=8: no dp sync
	se := m.Estimate(solo)
	if se.Stages[0].DPSync != 0 {
		t.Errorf("tp-only stage has DPSync = %v, want 0", se.Stages[0].DPSync)
	}
}

func TestOOMDetection(t *testing.T) {
	g, _ := model.GPT3("13B")
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 1, 1)
	e := m.Estimate(c)
	if e.Feasible {
		t.Fatal("13B on 4 GPUs without pipeline/recompute should be infeasible")
	}
	if e.OOMStage != 0 {
		t.Errorf("OOMStage = %d, want 0", e.OOMStage)
	}
	if e.Throughput(g.GlobalBatch) != 0 {
		t.Error("infeasible config should have zero throughput")
	}
}

func TestThroughput(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 2, 1)
	e := m.Estimate(c)
	if !e.Feasible {
		t.Fatal("expected feasible")
	}
	if tput := e.Throughput(g.GlobalBatch); tput <= 0 {
		t.Fatalf("Throughput = %v", tput)
	}
}

func TestMorePipelineStagesCutMemory(t *testing.T) {
	g, _ := model.GPT3("2.6B")
	m := newModel(t, g, 8)
	e1 := m.Estimate(balanced(t, g, 8, 1, 1))
	e4 := m.Estimate(balanced(t, g, 8, 4, 1))
	// 4 stages shard parameters across the pipeline; per-device param
	// memory must drop even though tp per stage is smaller.
	p1 := e1.Stages[0].ParamMem + e1.Stages[0].OptMem
	var p4 float64
	for i := range e4.Stages {
		if v := e4.Stages[i].ParamMem + e4.Stages[i].OptMem; v > p4 {
			p4 = v
		}
	}
	if p4 >= p1*1.2 {
		t.Errorf("4-stage worst param+opt mem %v should not exceed 1-stage %v", p4, p1)
	}
}

func TestTPCommTrackedForTransformers(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 1, 1) // tp=4
	e := m.Estimate(c)
	if e.Stages[0].TPComm <= 0 {
		t.Error("tp=4 transformer should record tensor-parallel comm time")
	}
	dp := c.Clone()
	dp.MutStage(0, func(st *config.Stage) {
		for j := range st.Ops {
			st.Ops[j] = config.OpSetting{TP: 1, DP: 4, Dim: 0}
		}
	})
	de := m.Estimate(dp)
	if de.Stages[0].TPComm != 0 {
		t.Errorf("tp=1 stage has TPComm = %v, want 0", de.Stages[0].TPComm)
	}
}

func TestP2PBetweenStages(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 2, 1)
	e := m.Estimate(c)
	if e.Stages[0].P2P != 0 {
		t.Errorf("stage 0 has inbound P2P = %v, want 0", e.Stages[0].P2P)
	}
	if e.Stages[1].P2P <= 0 {
		t.Error("stage 1 should pay boundary communication")
	}
}

func TestCompCommDecomposition(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 8)
	c := balanced(t, g, 8, 2, 2)
	e := m.Estimate(c)
	for i := range e.Stages {
		s := &e.Stages[i]
		if s.CompTime() <= 0 {
			t.Errorf("stage %d CompTime = %v, want > 0", i, s.CompTime())
		}
		if s.CommTime(e.Microbatches) < 0 {
			t.Errorf("stage %d CommTime negative", i)
		}
		total := s.CompTime() + s.TPComm + s.P2P + s.Recomp + s.ReshardComm
		if diff := total/(s.FwdTime+s.BwdTime) - 1; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("stage %d decomposition does not add up", i)
		}
	}
}

// Property: doubling the microbatch size never reduces per-microbatch
// stage time and never reduces activation memory per microbatch.
func TestMicrobatchMonotonicity(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 4)
	f := func(mbsExp uint8) bool {
		mbs := 1 << (mbsExp % 5) // 1..16
		c1 := balanced(t, g, 4, 2, mbs)
		c2 := balanced(t, g, 4, 2, mbs*2)
		e1, e2 := m.Estimate(c1), m.Estimate(c2)
		for i := range e1.Stages {
			if e2.Stages[i].FwdTime < e1.Stages[i].FwdTime {
				return false
			}
			if e2.Stages[i].ActPerMB < e1.Stages[i].ActPerMB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: estimates are strictly positive and finite for any valid
// balanced configuration.
func TestEstimateWellFormed(t *testing.T) {
	g, _ := model.T5("770M")
	m := newModel(t, g, 16)
	f := func(stRaw, mbsRaw uint8) bool {
		stages := 1 << (stRaw % 4) // 1,2,4,8
		mbs := 1 << (mbsRaw % 4)   // 1..8
		c, err := config.Balanced(g, 16, stages, mbs)
		if err != nil {
			return true
		}
		e := m.Estimate(c)
		if e.IterTime <= 0 || e.PeakMem <= 0 {
			return false
		}
		for i := range e.Stages {
			s := &e.Stages[i]
			if s.FwdTime <= 0 || s.BwdTime <= 0 || s.PeakMem <= 0 || s.StageTime <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestZeroMicrobatchConfigInfeasible(t *testing.T) {
	// Regression (PR 4, found by diffcheck): a degenerate config whose
	// micro-batch exceeds the global batch executes zero microbatches —
	// zero work per iteration. Estimate historically returned a
	// finite-IterTime Feasible:true estimate for it (warm-up-only Eq. 2)
	// while pipesim rejected the same config with an error, so the
	// search could score "do nothing" as a win.
	g := model.Uniform(8, 1e11, 1e7, 1e6, 64) // GlobalBatch 64
	m := newModel(t, g, 4)
	c := balanced(t, g, 4, 2, 1)
	c.SetMicroBatch(128) // > GlobalBatch → zero microbatches
	if n := c.NumMicrobatches(g.GlobalBatch); n != 0 {
		t.Fatalf("setup: NumMicrobatches = %d, want 0", n)
	}
	e := m.Estimate(c)
	if e.Feasible {
		t.Error("zero-work estimate must be infeasible")
	}
	if e.Microbatches != 0 {
		t.Errorf("Microbatches = %d, want 0", e.Microbatches)
	}
}

var sink float64

// BenchmarkStageMetricsMiss is a stage-cache miss on a warm profiling
// database: one evalStage plus the store of its result. Each call asks
// for an in-flight count no earlier call used, so the cache grows with
// b.N (and is reset at stageCacheCap, as in a long search).
func BenchmarkStageMetricsMiss(b *testing.B) {
	g, _ := model.GPT3("2.6B")
	m := New(g, hardware.DGX1V100(2), 1)
	cfg, err := config.Balanced(g, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	m.Estimate(cfg)
	st := &cfg.Stages[1]
	var sm StageMetrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := stageKey{st.SubHash(), cfg.MicroBatch, cfg.FirstDev(1), 8 + i, cfg.Stages[0].Devices}
		m.stageMetrics(&sm, st, key, nil)
		sink += sm.StageTime
	}
}
