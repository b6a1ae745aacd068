package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// estimateAuditor re-checks with the public, full Validate every
// configuration the search hands to the performance model, and that
// none is estimated as new twice.
type estimateAuditor struct {
	t       *testing.T
	g       *model.Graph
	devices int

	mu        sync.Mutex
	estimated int
	perDepth  map[int]int
	keys      map[uint64]bool
}

func newEstimateAuditor(t *testing.T, g *model.Graph, devices int) *estimateAuditor {
	return &estimateAuditor{t: t, g: g, devices: devices, perDepth: map[int]int{}, keys: map[uint64]bool{}}
}

func (a *estimateAuditor) OnIteration(obs.IterationEvent) {}

func (a *estimateAuditor) OnEstimate(cfg *config.Config, _ *perfmodel.Estimate) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.estimated++
	a.perDepth[cfg.NumStages()]++
	if k := cfg.Key(); a.keys[k] {
		a.t.Errorf("estimated %016x as new twice", k)
	} else {
		a.keys[k] = true
	}
	if err := cfg.Validate(a.g, a.devices); err != nil {
		a.t.Errorf("estimated an invalid configuration: %v\n%s", err, cfg)
	}
}

// TestSeedIsValidatedOnce is the base case ValidateDelta's induction
// stands on: a seed that fails Validate ends its stage-count task with
// a SearchError before anything is estimated, whatever built it.
func TestSeedIsValidatedOnce(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1)
	audit := newEstimateAuditor(t, g, 8)
	opts := Options{TimeBudget: time.Hour, MaxIterations: 2, Seed: 1, StageCounts: []int{2, 4}, Tracer: audit}
	opts.Initializer = func(g *model.Graph, devices, stages, mbs int) (*config.Config, error) {
		c, err := config.Balanced(g, devices, stages, mbs)
		if err == nil && stages == 4 {
			// A device total off by one stage: the last stage's devices
			// are counted twice. Every op setting still matches its stage.
			c.MutStage(3, func(s *config.Stage) {
				s.Devices *= 2
				for j := range s.Ops {
					s.Ops[j].TP *= 2
				}
			})
		}
		return c, err
	}
	res, err := SearchContext(context.Background(), g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].StageCount != 4 ||
		res.Diagnostics[0].Err == nil || res.Diagnostics[0].PanicValue != nil {
		t.Fatalf("Diagnostics = %v, want one validation failure for depth 4", res.Diagnostics)
	}
	if audit.perDepth[4] != 0 {
		t.Errorf("%d configurations of the rejected depth reached the performance model", audit.perDepth[4])
	}
	if audit.perDepth[2] == 0 {
		t.Error("the valid depth was not searched")
	}
	for _, c := range res.TopK {
		if c.Config.NumStages() == 4 {
			t.Errorf("TopK holds a configuration of the rejected depth: %s", c.Config)
		}
	}
}

// TestEveryEstimatedConfigValidates pins the induction itself on one
// search: nothing ValidateDelta let through in multiHop or fineTune —
// and nothing attachRecompute built on top — fails the full check. The
// starts are the default, the one bench/ hands core inside a span, and
// Exp#7's imbalanced ones. The exact trial path (bothTrialPaths) also
// checks the fine-tune trials a bound would reject unestimated.
func TestEveryEstimatedConfigValidates(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1)
	for name, init := range map[string]Initializer{
		"default":       nil,
		"balanced-hook": func(g *model.Graph, d, p, m int) (*config.Config, error) { return config.Balanced(g, d, p, m) },
		"imbalance-op":  config.ImbalancedOps,
		"imbalance-gpu": config.ImbalancedGPUs,
	} {
		bothTrialPaths(t, func(exact bool, reg *obs.Registry) {
			audit := newEstimateAuditor(t, g, 8)
			// Depths 1–5: ImbalancedGPUs cannot split 8 devices any deeper.
			res, err := Search(g, cl, Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: 1, StageCounts: []int{1, 2, 3, 4, 5},
				ExtendedPrimitives: true, Initializer: init, Tracer: audit, Metrics: reg})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Diagnostics) != 0 {
				t.Errorf("%s: a start was rejected: %v", name, res.Diagnostics)
			}
			if rejected := rejectedByBound(reg); audit.estimated+rejected != res.Explored || res.Explored < 1000 {
				t.Errorf("%s, exact trials %v: audited %d and the bound rejected %d of %d explored configurations",
					name, exact, audit.estimated, rejected, res.Explored)
			}
		})
	}
}
