package core

import (
	"slices"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

func TestExtensionTableShape(t *testing.T) {
	var ext []*Primitive
	for i := range Table {
		if Table[i].Extended {
			ext = append(ext, &Table[i])
		}
	}
	if len(ext) != 4 {
		t.Fatalf("Table has %d extended primitives, want 4", len(ext))
	}
	pairs := [][2]string{{"inc-zr", "dec-zr"}, {"inc-sp", "dec-sp"}}
	for pi, pr := range pairs {
		inc, dec := ext[2*pi], ext[2*pi+1]
		if inc.Name != pr[0] || dec.Name != pr[1] {
			t.Fatalf("extension primitive names wrong: %s/%s", inc.Name, dec.Name)
		}
		for _, r := range []Resource{Comp, Comm, Mem} {
			if inc.effect(r) != -dec.effect(r) && inc.effect(r) != Flat {
				t.Errorf("%s %v: trends not opposite", inc.Name, r)
			}
		}
	}
	// The extended query lists Table 1's eligible primitives first, in
	// the paper-faithful order.
	for _, r := range []Resource{Comp, Comm, Mem} {
		base, all := names(Eligible(r, false)), names(Eligible(r, true))
		if len(all) < len(base) || !slices.Equal(all[:len(base)], base) {
			t.Errorf("%v: extended eligibility %v does not start with %v", r, all, base)
		}
	}
	// inc-zr must be eligible for memory bottlenecks (and only there).
	found := false
	for _, p := range Eligible(Mem, true) {
		if p.Name == "inc-zr" {
			found = true
		}
	}
	if !found {
		t.Error("inc-zr not eligible for Mem")
	}
	for _, p := range Eligible(Mem, false) {
		if p.Name == "inc-zr" {
			t.Error("inc-zr leaked into the paper-faithful table")
		}
	}
	// dec-zr relieves communication.
	found = false
	for _, p := range Eligible(Comm, true) {
		if p.Name == "dec-zr" {
			found = true
		}
	}
	if !found {
		t.Error("dec-zr not eligible for Comm")
	}
}

func TestToggleZeRO(t *testing.T) {
	g := model.Uniform(8, 1e10, 1e8, 1e5, 64)
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 1, 8)
	for j := range cfg.Stages[0].Ops {
		cfg.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 4, Dim: 0}
	}
	on := candidates(s, toggle(true, true), cfg, 0)
	if len(on) != 1 {
		t.Fatal("inc-zr produced nothing")
	}
	if err := on[0].Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	for j := range on[0].Stages[0].Ops {
		if !on[0].Stages[0].Ops[j].ZeRO {
			t.Fatal("op not ZeRO-sharded")
		}
	}
	// Idempotent: inc-zr on an all-ZeRO stage yields nothing.
	if got := candidates(s, toggle(true, true), on[0], 0); got != nil {
		t.Error("inc-zr on sharded stage should be nil")
	}
	// dec restores the original hash (invariant 3).
	off := candidates(s, toggle(true, false), on[0], 0)
	if len(off) != 1 || off[0].Hash() != cfg.Hash() {
		t.Error("dec-zr does not invert inc-zr")
	}
	// tp-only stage: nothing to shard.
	tpOnly := mustBalanced(t, g, 4, 1, 8)
	if got := candidates(s, toggle(true, true), tpOnly, 0); got != nil {
		t.Error("inc-zr with dp=1 should be nil")
	}
}

func TestZeROCutsOptimizerMemory(t *testing.T) {
	g := model.Uniform(8, 1e10, 1e8, 1e5, 64) // parameter-heavy ops
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 1, 8)
	for j := range cfg.Stages[0].Ops {
		cfg.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 4, Dim: 0}
	}
	zr := candidates(s, toggle(true, true), cfg, 0)[0]
	base := s.estimate(nil, cfg)
	sharded := s.estimate(nil, zr)
	if sharded.Stages[0].OptMem >= base.Stages[0].OptMem/2 {
		t.Errorf("ZeRO OptMem %v, want well below %v", sharded.Stages[0].OptMem, base.Stages[0].OptMem)
	}
	if sharded.Stages[0].DPSync <= base.Stages[0].DPSync {
		t.Error("ZeRO should add parameter all-gather cost")
	}
	if sharded.Stages[0].ParamMem != base.Stages[0].ParamMem {
		t.Error("ZeRO-1 must not change parameter memory")
	}
}

func TestZeROValidation(t *testing.T) {
	g := model.Uniform(8, 1e10, 1e8, 1e5, 64)
	cfg, err := config.Balanced(g, 4, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stages[0].Ops[0].ZeRO = true // dp == 1
	if err := cfg.Validate(g, 4); err == nil {
		t.Error("ZeRO with dp=1 accepted")
	}
}

func TestDeviceMovesClearDanglingZeRO(t *testing.T) {
	// Halving dp to 1 must drop the ZeRO flag, or the result is invalid.
	g := model.Uniform(16, 1e10, 1e8, 1e5, 64)
	s := testSearcher(t, g, 16)
	cfg := mustBalanced(t, g, 16, 3, 8) // devices 4,4,8
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: cfg.Stages[i].Devices / 2, DP: 2, Dim: 0, ZeRO: true}
		}
	}
	if err := cfg.Validate(g, 16); err != nil {
		t.Fatal(err)
	}
	for _, p := range Table[4:8] { // inc-dp, dec-dp, inc-tp, dec-tp
		for _, c := range candidates(s, p.apply, cfg, 1) {
			if c == nil {
				continue
			}
			if err := c.Validate(g, 16); err != nil {
				t.Errorf("%s left an invalid config: %v", p.Name, err)
			}
		}
	}
}

func TestExtendedSearchFindsZeROUnderMemoryPressure(t *testing.T) {
	// A parameter-dominated workload on memory-tight devices: with the
	// extension on, the search should be able to use ZeRO, and its best
	// config must be at least as good as the paper-faithful space's.
	g := model.Uniform(16, 5e11, 3e8, 1e6, 64)
	cl := hardware.DGX1V100(1).Restrict(4)
	base, err := Search(g, cl, Options{
		TimeBudget: time.Second, Seed: 1, StageCounts: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Search(g, cl, Options{
		TimeBudget: time.Second, Seed: 1, StageCounts: []int{1, 2},
		ExtendedPrimitives: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Best.Score > base.Best.Score*1.02 {
		t.Errorf("extended space best %.3f worse than base %.3f", ext.Best.Score, base.Best.Score)
	}
}

func TestSeqParCutsActivationMemory(t *testing.T) {
	// GPT-3 has layer norms whose activations are replicated across the
	// tp group; sequence parallelism shards them.
	g, _ := model.GPT3("1.3B")
	s := testSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 1, 4) // tp=4
	sp := candidates(s, toggle(false, true), cfg, 0)
	if len(sp) != 1 {
		t.Fatal("inc-sp produced nothing")
	}
	if err := sp[0].Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	base := s.estimate(nil, cfg)
	seq := s.estimate(nil, sp[0])
	if seq.Stages[0].ActPerMB >= base.Stages[0].ActPerMB {
		t.Errorf("seq-parallel ActPerMB %v should be below base %v",
			seq.Stages[0].ActPerMB, base.Stages[0].ActPerMB)
	}
	if seq.Stages[0].FwdTime > base.Stages[0].FwdTime {
		t.Error("sequence parallelism must not slow the forward pass")
	}
	// dec inverts (invariant 3).
	back := candidates(s, toggle(false, false), sp[0], 0)
	if len(back) != 1 || back[0].Hash() != cfg.Hash() {
		t.Error("dec-sp does not invert inc-sp")
	}
	// tp=1 stage: nothing to shard.
	dpOnly := cfg.Clone()
	for j := range dpOnly.Stages[0].Ops {
		dpOnly.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 4, Dim: 0}
	}
	if got := candidates(s, toggle(false, true), dpOnly, 0); got != nil {
		t.Error("inc-sp with tp=1 should be nil")
	}
}

func TestSeqParValidation(t *testing.T) {
	g, _ := model.GPT3("350M")
	cfg, err := config.Balanced(g, 4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cfg.Stages[0].Ops {
		cfg.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 4, Dim: 0}
	}
	cfg.Stages[0].Ops[0].SeqPar = true // tp == 1
	if err := cfg.Validate(g, 4); err == nil {
		t.Error("SeqPar with tp=1 accepted")
	}
}
