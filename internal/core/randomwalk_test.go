package core

import (
	"math/rand"
	"testing"

	"aceso/internal/model"
	"aceso/internal/pipesim"
)

// TestRandomPrimitiveWalk drives the whole system through long random
// sequences of primitive applications and asserts the global
// invariants of DESIGN.md §6 at every step:
//
//  1. every produced configuration validates;
//  2. primitives preserve total devices and op coverage;
//  3. every configuration is estimable (positive, finite metrics);
//  4. every *feasible* configuration is executable by the runtime
//     simulator without error.
func TestRandomPrimitiveWalk(t *testing.T) {
	workloads := []struct {
		name string
		g    func() *model.Graph
		dev  int
	}{
		{"gpt", func() *model.Graph { g, _ := model.GPT3("350M"); return g }, 8},
		{"wrn", func() *model.Graph { g, _ := model.WideResNet("0.5B"); return g }, 8},
		{"uniform", func() *model.Graph { return model.Uniform(24, 1e11, 1e7, 1e6, 64) }, 4},
	}
	prims := make([]*Primitive, 0, len(Table))
	for i := range Table {
		prims = append(prims, &Table[i])
	}

	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			g := wl.g()
			s := testSearcher(t, g, wl.dev)
			rng := rand.New(rand.NewSource(99))
			for _, stages := range []int{1, 2, 4} {
				cfg := mustBalanced(t, g, wl.dev, stages, 4)
				steps, applied := 0, 0
				for steps < 120 {
					steps++
					prim := prims[rng.Intn(len(prims))]
					stage := rng.Intn(cfg.NumStages())
					cands := candidates(s, prim.apply, cfg, stage)
					if len(cands) == 0 {
						continue
					}
					c := cands[rng.Intn(len(cands))]
					if c == nil {
						continue
					}
					if err := c.Validate(g, wl.dev); err != nil {
						t.Fatalf("step %d: %s on stage %d produced invalid config: %v",
							steps, prim.Name, stage, err)
					}
					if c.TotalDevices() != wl.dev {
						t.Fatalf("step %d: %s changed device count", steps, prim.Name)
					}
					if c.Hash() != c.Clone().Hash() {
						t.Fatalf("step %d: hash not stable under clone", steps)
					}
					est := s.estimate(nil, c)
					if est.IterTime <= 0 || est.PeakMem <= 0 {
						t.Fatalf("step %d: degenerate estimate %+v", steps, est)
					}
					if est.Feasible {
						if sim, err := pipesim.Simulate(s.pm, c, 1); err != nil {
							t.Fatalf("step %d: feasible config not simulatable: %v", steps, err)
						} else if sim.IterTime <= 0 {
							t.Fatalf("step %d: simulator returned %v", steps, sim.IterTime)
						}
					}
					cfg = c
					applied++
				}
				if applied < 20 {
					t.Errorf("%d stages: only %d/%d random steps applied; walk too constrained",
						stages, applied, steps)
				}
			}
		})
	}
}
