package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// strippedClone rebuilds a configuration from its exported fields only,
// discarding every memoized hash — the from-scratch reference for the
// invalidation contract.
func strippedClone(c *config.Config) *config.Config {
	out := &config.Config{
		MicroBatch: c.MicroBatch,
		Stages:     make([]config.Stage, len(c.Stages)),
	}
	for i := range c.Stages {
		s := &c.Stages[i]
		out.Stages[i] = config.Stage{
			Start:   s.Start,
			End:     s.End,
			Devices: s.Devices,
			Ops:     append([]config.OpSetting(nil), s.Ops...),
		}
	}
	return out
}

// TestIncrementalEstimateEquivalence is the correctness gate for the
// hot-path caching layers: walking random primitive sequences from
// testing/quick-generated starting points, every intermediate
// configuration must satisfy, bit-for-bit,
//
//  1. memoized Config.Hash() == from-scratch rebuild's Hash(), and
//  2. cached/incremental Estimate == full recomputation with the
//     stage cache disabled (same profiler database, so the only
//     difference is the memo).
func TestIncrementalEstimateEquivalence(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.DGX1V100(1) // 8 devices
	pmCached := perfmodel.New(g, cl, 1)
	pmFull := &perfmodel.Model{
		Graph:             g,
		Cluster:           cl,
		Prof:              pmCached.Prof, // shared database: identical op times
		DisableStageCache: true,
	}
	s := &searcher{
		graph:    g,
		cluster:  cl,
		pm:       pmCached,
		opts:     Options{ExtendedPrimitives: true}.withDefaults(),
		deadline: time.Now().Add(time.Hour),
		visited:  make(map[uint64]bool),
		pool:     make(map[uint64]Candidate),
		cache:    make(map[uint64]*perfmodel.Estimate),
	}

	check := func(cfg *config.Config, step int) bool {
		if got, want := cfg.Hash(), strippedClone(cfg).Hash(); got != want {
			t.Errorf("step %d: memoized hash %x != rebuilt %x (%s)", step, got, want, cfg)
			return false
		}
		cached := pmCached.Estimate(cfg)
		full := pmFull.Estimate(strippedClone(cfg))
		if !reflect.DeepEqual(cached, full) {
			t.Errorf("step %d: cached estimate diverges from full recomputation\ncached: %+v\nfull:   %+v\nconfig: %s",
				step, cached, full, cfg)
			return false
		}
		return true
	}

	prims := append(append([]Primitive(nil), Table...), ExtensionTable...)
	walk := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stages := 1 << rng.Intn(3) // 1, 2 or 4 pipeline stages
		mbs := 1 << rng.Intn(3)    // 1, 2 or 4
		cfg, err := config.Balanced(g, 8, stages, mbs)
		if err != nil {
			return true // not every (stages, mbs) combination is buildable
		}
		if !check(cfg, -1) {
			return false
		}
		for step := 0; step < 6; step++ {
			prim := &prims[rng.Intn(len(prims))]
			stage := rng.Intn(cfg.NumStages())
			cands := prim.apply(s, cfg, stage)
			// Keep only valid candidates; primitives may return nil or
			// configs the cluster cannot host.
			var valid []*config.Config
			for _, c := range cands {
				if c != nil && c.Validate(g, cl.TotalDevices()) == nil {
					valid = append(valid, c)
				}
			}
			if len(valid) == 0 {
				continue
			}
			cfg = valid[rng.Intn(len(valid))]
			if !check(cfg, step) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(walk, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEvalStageComposedEquivalence cross-checks EvalStage, the DP
// baselines' path into the performance model, against the stages of
// the cached Estimate on uniform configurations: each stage must agree
// bit-for-bit except StageTime, which Eq. 2 composes across the whole
// pipeline and EvalStage leaves zero.
func TestEvalStageComposedEquivalence(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.DGX1V100(1)
	pm := perfmodel.New(g, cl, 1)
	for _, tc := range []struct{ stages, tp, dp, mbs int }{
		{2, 2, 2, 4}, {4, 2, 1, 2}, {1, 4, 2, 2}, {2, 1, 4, 4},
	} {
		cfg, err := config.Balanced(g, cl.TotalDevices(), tc.stages, tc.mbs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.Stages {
			i := i
			cfg.MutStage(i, func(st *config.Stage) {
				for j := range st.Ops {
					st.Ops[j] = config.OpSetting{TP: tc.tp, DP: tc.dp}
				}
				st.Devices = tc.tp * tc.dp
			})
		}
		if cfg.Validate(g, cfg.TotalDevices()) != nil {
			continue // uniform override does not fit this cluster split
		}
		est := pm.Estimate(cfg)

		n := cfg.NumMicrobatches(g.GlobalBatch)
		p := cfg.NumStages()
		firstDev := 0
		for i := range cfg.Stages {
			st := &cfg.Stages[i]
			prev := 0
			if i > 0 {
				prev = cfg.Stages[i-1].Devices
			}
			sm, err := pm.EvalStage(st.Start, st.End, st.Devices, tc.tp, tc.dp, false,
				cfg.MicroBatch, firstDev, min(p-i, n), prev)
			if err != nil {
				t.Fatalf("EvalStage: %v", err)
			}
			want := est.Stages[i]
			want.StageTime = 0
			if sm != want {
				t.Errorf("stages=%d tp=%d dp=%d stage %d: Estimate and EvalStage disagree\nest:       %+v\nEvalStage: %+v",
					tc.stages, tc.tp, tc.dp, i, want, sm)
			}
			firstDev += st.Devices
		}
	}
}
