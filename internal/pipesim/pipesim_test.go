package pipesim

import (
	"math"
	"testing"
	"testing/quick"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

func setup(t *testing.T, g *model.Graph, devices, stages, mbs int) (*perfmodel.Model, *config.Config) {
	t.Helper()
	pm := perfmodel.New(g, hardware.DGX1V100(4).Restrict(devices), 1)
	c, err := config.Balanced(g, devices, stages, mbs)
	if err != nil {
		t.Fatal(err)
	}
	return pm, c
}

func TestSimulateDeterministic(t *testing.T) {
	g, _ := model.GPT3("350M")
	pm, c := setup(t, g, 4, 2, 1)
	a, err := Simulate(pm, c, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(pm, c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterTime != b.IterTime || a.PeakMem != b.PeakMem {
		t.Errorf("not deterministic: %v/%v vs %v/%v", a.IterTime, a.PeakMem, b.IterTime, b.PeakMem)
	}
	c2, err := Simulate(pm, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c2.IterTime == a.IterTime {
		t.Error("different seeds should perturb the simulation")
	}
}

func TestSimulateRejectsInvalidConfig(t *testing.T) {
	g, _ := model.GPT3("350M")
	pm, c := setup(t, g, 4, 2, 1)
	c.Stages[0].Devices = 16 // now invalid for 4-device cluster
	if _, err := Simulate(pm, c, 1); err == nil {
		t.Fatal("invalid config should be rejected")
	}
}

func TestCriticalPathLowerBound(t *testing.T) {
	// Invariant 6: the simulated makespan is at least the steady-state
	// work of the busiest stage and at least the pipeline fill time.
	g, _ := model.GPT3("350M")
	for _, stages := range []int{1, 2, 4} {
		pm, c := setup(t, g, 4, stages, 2)
		est := pm.Estimate(c)
		r, err := Simulate(pm, c, 3)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		var fill float64
		for i := range est.Stages {
			fb := est.Stages[i].FwdTime + est.Stages[i].BwdTime
			if fb > worst {
				worst = fb
			}
			fill += fb
		}
		// Durations in the simulator are ≥ analytic (positive bias +
		// task overhead), so these are valid lower bounds.
		lb := worst * float64(est.Microbatches) * (1 + skewBias - skewAmp/2)
		if r.IterTime < lb {
			t.Errorf("%d stages: makespan %v below steady bound %v", stages, r.IterTime, lb)
		}
		if r.IterTime < fill*(1+skewBias-skewAmp/2) {
			t.Errorf("%d stages: makespan %v below fill bound %v", stages, r.IterTime, fill)
		}
	}
}

func TestInflightMatchesEq1(t *testing.T) {
	// 1F1B keeps at most (p − i) microbatches alive on stage i — the
	// premise of Eq. 1 — and exactly that many when N ≥ p.
	g, _ := model.GPT3("350M")
	pm, c := setup(t, g, 8, 4, 4) // N = 256 ≥ p
	r, err := Simulate(pm, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.NumStages()
	for i, got := range r.PeakInflight {
		if want := p - i; got != want {
			t.Errorf("stage %d peak inflight = %d, want %d", i, got, want)
		}
	}
}

func TestPredictionErrorSmallButNonzero(t *testing.T) {
	// The substrate must disagree with the analytic model (otherwise
	// Exp#8 is circular) but only by a few percent (otherwise the
	// search would be steering blind).
	g, _ := model.GPT3("1.3B")
	pm, c := setup(t, g, 8, 4, 2)
	est := pm.Estimate(c)
	r, err := Simulate(pm, c, 11)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(est.IterTime-r.IterTime) / r.IterTime
	if relErr == 0 {
		t.Error("prediction exactly matches simulation: substrate is circular")
	}
	if relErr > 0.15 {
		t.Errorf("prediction error %.1f%% too large for the search to be useful", relErr*100)
	}
}

func TestMemoryPredictionOverestimates(t *testing.T) {
	// §3.3: the model deliberately over-estimates allocator reserve, so
	// prediction ≥ simulation for the dominant stage in typical configs.
	g, _ := model.GPT3("1.3B")
	pm, c := setup(t, g, 8, 4, 2)
	est := pm.Estimate(c)
	r, err := Simulate(pm, c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.PeakMem < r.PeakMem {
		t.Errorf("predicted peak %v below simulated %v: over-estimation broken",
			est.PeakMem, r.PeakMem)
	}
	relErr := (est.PeakMem - r.PeakMem) / r.PeakMem
	if relErr > 0.30 {
		t.Errorf("memory over-estimation %.1f%% unreasonably large", relErr*100)
	}
}

func TestOOMSurfacing(t *testing.T) {
	g, _ := model.GPT3("13B")
	pm, c := setup(t, g, 4, 1, 1)
	r, err := Simulate(pm, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OOM {
		t.Error("13B on 4 GPUs in one stage should OOM in simulation")
	}
}

func TestStageTimesBoundedByMakespan(t *testing.T) {
	g, _ := model.T5("770M")
	pm, c := setup(t, g, 8, 4, 2)
	r, err := Simulate(pm, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range r.StageTime {
		if st > r.IterTime {
			t.Errorf("stage %d time %v exceeds makespan %v", i, st, r.IterTime)
		}
	}
}

// Property: the simulator completes and satisfies basic sanity for a
// range of pipeline depths and microbatch sizes.
func TestSimulateWellFormed(t *testing.T) {
	g, _ := model.GPT3("350M")
	pm := perfmodel.New(g, hardware.DGX1V100(1), 1)
	f := func(stRaw, mbsRaw uint8) bool {
		stages := 1 << (stRaw % 4)
		mbs := 1 << (mbsRaw % 4)
		c, err := config.Balanced(g, 8, stages, mbs)
		if err != nil {
			return true
		}
		r, err := Simulate(pm, c, 9)
		if err != nil {
			return false
		}
		if r.IterTime <= 0 || r.PeakMem <= 0 {
			return false
		}
		for i := range r.PeakInflight {
			if r.PeakInflight[i] < 1 || r.PeakInflight[i] > stages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGPipeStashesAllMicrobatches(t *testing.T) {
	// GPipe's forward-then-backward order keeps every microbatch alive
	// on every stage — the memory blow-up 1F1B (and Eq. 1) avoids.
	g, _ := model.GPT3("350M")
	pm, c := setup(t, g, 8, 4, 8) // N = 128
	r1f1b, err := Simulate(pm, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	rgpipe, err := SimulateEffects(pm, c, 1, GPipe, DefaultEffects())
	if err != nil {
		t.Fatal(err)
	}
	n := c.NumMicrobatches(g.GlobalBatch)
	for i, got := range rgpipe.PeakInflight {
		if got != n {
			t.Errorf("GPipe stage %d inflight = %d, want all %d microbatches", i, got, n)
		}
	}
	if rgpipe.PeakMem <= r1f1b.PeakMem {
		t.Errorf("GPipe peak memory %v should exceed 1F1B %v", rgpipe.PeakMem, r1f1b.PeakMem)
	}
}

func TestBusyFractions(t *testing.T) {
	g, _ := model.GPT3("350M")
	pm, c := setup(t, g, 4, 4, 2)
	r, err := Simulate(pm, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range r.StageBusy {
		if b <= 0 || b > 1 {
			t.Errorf("stage %d busy fraction %v out of (0, 1]", i, b)
		}
	}
	bf := r.BubbleFraction()
	if bf < 0 || bf >= 1 {
		t.Errorf("bubble fraction %v out of [0, 1)", bf)
	}
	// A single-stage pipeline has no bubbles beyond rounding.
	solo, err := Simulate(pm, mustCfg(t, g, 4, 1, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if solo.BubbleFraction() > 0.05 {
		t.Errorf("1-stage bubble fraction %v, want ≈0", solo.BubbleFraction())
	}
	if bf <= solo.BubbleFraction() {
		t.Errorf("4-stage bubbles (%v) should exceed 1-stage (%v)", bf, solo.BubbleFraction())
	}
}

func TestDPSyncCountsAsBusy(t *testing.T) {
	// The gradient all-reduce extends StageTime, so it must count as
	// busy time too. The historical bug divided compute-only busy time
	// by a DPSync-inclusive makespan, deflating every dp>1 stage's busy
	// fraction and inflating BubbleFraction.
	g, _ := model.GPT3("350M")
	pm, c := setup(t, g, 4, 1, 2)
	// Balanced starts at full TP; flip to tp2·dp2 so the stage runs a
	// gradient all-reduce (DPSync > 0).
	for j := range c.Stages[0].Ops {
		c.Stages[0].Ops[j] = config.OpSetting{TP: 2, DP: 2, Dim: 0}
	}
	if err := c.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	est := pm.Estimate(c)
	if est.Stages[0].DPSync <= 0 {
		t.Fatal("setup needs a dp-synchronizing stage")
	}
	r, err := Simulate(pm, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A single stage is never dependency-blocked: it is busy for the
	// entire makespan, DPSync tail included.
	if r.StageBusy[0] < 0.999 {
		t.Errorf("1-stage busy fraction = %v, want ≈1 (DPSync not counted as busy?)", r.StageBusy[0])
	}
	// And in a deep pipeline, every stage's busy fraction covers at
	// least its own DPSync share of the makespan.
	pm4, c4 := setup(t, g, 8, 4, 2)
	est4 := pm4.Estimate(c4)
	r4, err := Simulate(pm4, c4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range r4.StageBusy {
		if share := est4.Stages[i].DPSync / r4.IterTime; b < share {
			t.Errorf("stage %d busy %v below its DPSync share %v", i, b, share)
		}
	}
}

// Property: GPipe's peak memory is never below 1F1B's — it stashes a
// superset of the microbatches on every stage (equality only when one
// microbatch makes the schedules coincide).
func TestGPipePeakMemAtLeast1F1B(t *testing.T) {
	g, _ := model.GPT3("350M")
	pm := perfmodel.New(g, hardware.DGX1V100(1), 1)
	f := func(stRaw, mbsRaw uint8, seed int16) bool {
		stages := 1 << (stRaw % 4)
		mbs := 1 << (mbsRaw % 4)
		c, err := config.Balanced(g, 8, stages, mbs)
		if err != nil {
			return true
		}
		a, err := Simulate(pm, c, int64(seed))
		if err != nil {
			return false
		}
		b, err := SimulateEffects(pm, c, int64(seed), GPipe, DefaultEffects())
		if err != nil {
			return false
		}
		for i := range a.PeakInflight {
			if b.PeakInflight[i] < a.PeakInflight[i] {
				return false
			}
		}
		return b.PeakMem >= a.PeakMem
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func mustCfg(t *testing.T, g *model.Graph, devices, stages, mbs int) *config.Config {
	t.Helper()
	c, err := config.Balanced(g, devices, stages, mbs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestModelFaithfulRealizesEq1(t *testing.T) {
	// With effects off the simulator's per-stage memory must equal the
	// model's Eq. 1 composition bitwise: every knob multiplies by
	// exactly 1.0, and the addition order matches the model's.
	g, _ := model.GPT3("1.3B")
	pm, c := setup(t, g, 8, 4, 2)
	est := pm.Estimate(c)
	r, err := SimulateEffects(pm, c, 5, OneFOneB, ModelFaithful())
	if err != nil {
		t.Fatal(err)
	}
	n := est.Microbatches
	p := c.NumStages()
	for i := range r.StagePeakMem {
		inflight := p - i
		if inflight > n {
			inflight = n
		}
		if r.PeakInflight[i] != inflight {
			t.Errorf("stage %d inflight %d, want min(p-i, n) = %d", i, r.PeakInflight[i], inflight)
		}
		sm := &est.Stages[i]
		want := sm.ParamMem + sm.OptMem + sm.ActPerMB*float64(inflight) + sm.ExtraMem
		if r.StagePeakMem[i] != want {
			t.Errorf("stage %d mem %v, want Eq.1 composition %v (diff %g)",
				i, r.StagePeakMem[i], want, r.StagePeakMem[i]-want)
		}
		if r.StageOOM[i] != (want > sm.CapMem) {
			t.Errorf("stage %d OOM verdict %v disagrees with Eq.1 vs CapMem", i, r.StageOOM[i])
		}
	}
	// Seeds must not matter when every stochastic knob is off.
	r2, err := SimulateEffects(pm, c, 99, OneFOneB, ModelFaithful())
	if err != nil {
		t.Fatal(err)
	}
	if r.IterTime != r2.IterTime || r.PeakMem != r2.PeakMem {
		t.Errorf("model-faithful mode must be seed-independent: %v/%v vs %v/%v",
			r.IterTime, r.PeakMem, r2.IterTime, r2.PeakMem)
	}
}

func TestMemSkewOwnStream(t *testing.T) {
	// Regression (PR 4): memory perturbation historically reused the
	// time-skew stream via skew(seed, cfg, i+1000, false), applying the
	// time-oriented bias to memory and colliding with compute-skew
	// indices for deep pipelines. Memory now draws from its own
	// "mem|"-keyed stream with its own (smaller) bias.
	g, _ := model.GPT3("1.3B")
	pm, c := setup(t, g, 8, 4, 2)
	est := pm.Estimate(c)
	r, err := Simulate(pm, c, 5)
	if err != nil {
		t.Fatal(err)
	}
	fx := DefaultEffects()
	oldStream := 0
	for i := range r.StagePeakMem {
		// The new accounting must match the exported composition helper…
		want := ExpectedStageMem(&est.Stages[i], r.PeakInflight[i], fx, 5, c, i)
		if r.StagePeakMem[i] != want {
			t.Errorf("stage %d mem %v != ExpectedStageMem %v", i, r.StagePeakMem[i], want)
		}
		// …and must NOT match the historical time-stream reuse.
		sm := &est.Stages[i]
		base := sm.ParamMem + sm.OptMem +
			sm.ActPerMB*fx.ActSlack*float64(r.PeakInflight[i]) +
			sm.ExtraMem*fx.AllocRetain
		old := base * fx.timeSkew(5, c, i+1000, false)
		if r.StagePeakMem[i] == old {
			oldStream++
		}
		// The mem factor stays within its own tight band, not the time
		// band: |factor − 1| ≤ MemSkewBias + MemSkewAmp/2 < 1.6%.
		factor := r.StagePeakMem[i] / base
		if lim := fx.MemSkewBias + fx.MemSkewAmp/2 + 1e-12; math.Abs(factor-1) > lim {
			t.Errorf("stage %d mem skew factor %v outside ±%v band", i, factor, lim)
		}
	}
	if oldStream == len(r.StagePeakMem) {
		t.Error("memory perturbation still rides the time-skew stream")
	}
}

func TestSimulateBitDeterminismPinned(t *testing.T) {
	// Byte-identical determinism at a fixed seed: two runs of the same
	// (model, config, seed) must agree to the last bit in every field.
	g, _ := model.GPT3("1.3B")
	pm, c := setup(t, g, 8, 4, 2)
	a, err := Simulate(pm, c, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(pm, c, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.IterTime) != math.Float64bits(b.IterTime) ||
		math.Float64bits(a.PeakMem) != math.Float64bits(b.PeakMem) {
		t.Fatalf("bit-level determinism broken: %x/%x vs %x/%x",
			math.Float64bits(a.IterTime), math.Float64bits(a.PeakMem),
			math.Float64bits(b.IterTime), math.Float64bits(b.PeakMem))
	}
	for i := range a.StagePeakMem {
		if math.Float64bits(a.StagePeakMem[i]) != math.Float64bits(b.StagePeakMem[i]) {
			t.Errorf("stage %d peak mem differs across identical runs", i)
		}
		if math.Float64bits(a.StageTime[i]) != math.Float64bits(b.StageTime[i]) {
			t.Errorf("stage %d time differs across identical runs", i)
		}
	}
}

func TestEffectsValidate(t *testing.T) {
	g, _ := model.GPT3("350M")
	pm, c := setup(t, g, 4, 2, 1)
	bad := []Effects{
		{TaskOverhead: -1, AllocRetain: 1, ActSlack: 1},
		{SkewAmp: -0.1, AllocRetain: 1, ActSlack: 1},
		{AllocRetain: 1.5, ActSlack: 1},
		{AllocRetain: 1, ActSlack: -0.2},
	}
	for i, fx := range bad {
		if _, err := SimulateEffects(pm, c, 1, OneFOneB, fx); err == nil {
			t.Errorf("bad effects #%d accepted", i)
		}
	}
}
