package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

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
// testing/quick-generated starting points, on healthy, derated,
// classed, spot and one-dead fleets, every intermediate configuration
// must satisfy, bit-for-bit,
//
//  1. memoized Config.Hash() == from-scratch rebuild's Hash(), and
//  2. the estimate a search takes — through one EstArena, whose
//     operator records every fleet's model shares, and a Batch on the
//     walk's previous configuration — == full recomputation with the
//     stage cache disabled (same profiler database, so the only
//     difference is the memo and the records).
func TestIncrementalEstimateEquivalence(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	one, two := hardware.DGX1V100(1), hardware.DGX1V100(2)
	derated, err := one.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{
		{Device: 5, FLOPSScale: 0.6, MemScale: 0.8}}})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := two.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{{Device: 3, Dead: true}}})
	if err != nil {
		t.Fatal(err)
	}
	var arena perfmodel.EstArena
	var b perfmodel.Batch
	for _, f := range []zooFleet{
		{"DGX1V100(1)", one},
		{"DGX1V100(1)-derated5", derated},
		{"A100V100(1,1)", hardware.A100V100(1, 1)},
		{"ReservedSpotV100(8,1,1)", hardware.ReservedSpotV100(8, 1, 1, 6, 120)},
		{"DGX1V100(2)-dead3", dead},
	} {
		cl := f.cl
		pmCached := perfmodel.New(g, cl, 1)
		pmFull := &perfmodel.Model{
			Graph:             g,
			Cluster:           cl,
			Prof:              pmCached.Prof, // shared database: identical op times
			DisableStageCache: true,
		}
		s := newSearcher(g, cl, pmCached, Options{ExtendedPrimitives: true}.withDefaults(), 0, new(store))

		check := func(cfg, parent *config.Config, parentEst *perfmodel.Estimate, step int) (*perfmodel.Estimate, bool) {
			if got, want := cfg.Hash(), strippedClone(cfg).Hash(); got != want {
				t.Errorf("%s step %d: memoized hash %x != rebuilt %x (%s)", f.name, step, got, want, cfg)
				return nil, false
			}
			var cached *perfmodel.Estimate
			if parent == nil {
				cached = pmCached.EstimateIn(cfg, &arena)
			} else {
				pmCached.BeginBatch(&b, parent, parentEst, &arena)
				cached = b.Estimate(cfg)
			}
			full := pmFull.Estimate(strippedClone(cfg))
			// %v prints each float in its shortest exact form.
			if c, w := fmt.Sprintf("%v", *cached), fmt.Sprintf("%v", *full); c != w {
				t.Errorf("%s step %d: cached estimate diverges from full recomputation\ncached: %s\nfull:   %s\nconfig: %s",
					f.name, step, c, w, cfg)
				return nil, false
			}
			return cached, true
		}

		prims := Table
		walk := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			devices := 8 << rng.Intn(2) // 8 or 16, where the fleet has them
			if devices > cl.TotalDevices() {
				devices = 8
			}
			stages := 1 << rng.Intn(3) // 1, 2 or 4 pipeline stages
			mbs := 1 << rng.Intn(3)    // 1, 2 or 4
			cfg, err := config.Balanced(g, devices, stages, mbs)
			if err != nil {
				return true // not every (stages, mbs) combination is buildable
			}
			est, ok := check(cfg, nil, nil, -1)
			if !ok {
				return false
			}
			for step := 0; step < 6; step++ {
				// A primitive, or one of fineTune's moves: a suffix
				// retile or a dim flip.
				stage := rng.Intn(cfg.NumStages())
				j := rng.Intn(cfg.Stages[stage].NumOps())
				var cands []*config.Config
				switch k := rng.Intn(len(prims) + 2); k {
				case len(prims):
					cands = append(cands, retiled(cfg, stage, j, rng.Intn(2) == 0))
				case len(prims) + 1:
					c := cfg.Clone()
					j += c.Stages[stage].Start
					c.MutOp(stage, j, func(o *config.OpSetting) { o.Dim = (o.Dim + 1) % len(g.Ops[j].Dims) })
					cands = append(cands, c)
				default:
					cands = candidates(s, prims[k].apply, cfg, stage)
				}
				// Keep only valid candidates; primitives may return nil or
				// configs the cluster cannot host.
				var valid []*config.Config
				for _, c := range cands {
					if c != nil && c.Validate(g, devices) == nil {
						valid = append(valid, c)
					}
				}
				if len(valid) == 0 {
					continue
				}
				next := valid[rng.Intn(len(valid))]
				if est, ok = check(next, cfg, est, step); !ok {
					return false
				}
				cfg = next
			}
			return true
		}
		if err := quick.Check(walk, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}

		// fineTune's suffix retile, then a boundary move that makes the
		// suffix a stage: each retiled operator is priced in mid-stage
		// behind a tp-1 operator, then first in its stage, under the
		// same setting, the same stage devices and the same incoming tp.
		for _, p := range []int{2, 4} {
			base, err := config.Balanced(g, 8, p, 4)
			if err != nil {
				t.Fatal(err)
			}
			for si := range base.Stages {
				base.MutStage(si, func(st *config.Stage) {
					for j := range st.Ops {
						st.Ops[j].SetTiling(1, st.Devices)
					}
				})
			}
			baseEst, ok := check(base, nil, nil, -1)
			for k := 1; ok && k < base.Stages[1].NumOps(); k++ {
				mid := retiled(base, 1, k, false)
				var midEst *perfmodel.Estimate
				if midEst, ok = check(mid, base, baseEst, k); ok {
					cut := mid.Clone()
					cut.ShiftBoundary(0, k)
					_, ok = check(cut, mid, midEst, k)
				}
			}
		}
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
