package core

import (
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// TestObjectiveNominalOnHazardFreeClasses: device classes alone change
// where a search starts, not what it minimises.
func TestObjectiveNominalOnHazardFreeClasses(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.A100V100(1, 1)
	res, err := Search(g, cl, Options{TimeBudget: time.Hour, MaxIterations: 4, StageCounts: []int{2, 4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) < 2 {
		t.Fatalf("top-K has %d candidates", len(res.TopK))
	}
	for i, c := range res.TopK {
		if !c.Estimate.Feasible {
			t.Fatalf("TopK[%d] infeasible", i)
		}
		if c.Score != c.Estimate.IterTime {
			t.Errorf("TopK[%d] scores %v, nominal iteration time is %v", i, c.Score, c.Estimate.IterTime)
		}
		if exp, k := RiskAssess(&cl, c.Config, c.Estimate.IterTime); exp != c.Estimate.IterTime || k != 0 {
			t.Errorf("TopK[%d] assessed at %v, cadence %d; want the nominal %v and 0", i, exp, k, c.Estimate.IterTime)
		}
	}
	if res.RecommendedCadence != 0 {
		t.Errorf("cadence %d recommended on a hazard-free fleet", res.RecommendedCadence)
	}
}

// TestObjectiveReplicatedStagePaysRecoveryOnly: a preemption that hits
// a stage whose every operator has DP ≥ 2 loses no steps, so the stage
// adds its hazard × recovery and nothing to the rollback-exposed rate
// the cadence and the re-execution term are computed from.
func TestObjectiveReplicatedStagePaysRecoveryOnly(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.ReservedSpotV100(8, 1, 1, 6, 120)
	obj := newObjective(&cl)
	// Stage 0 on the reserved node, stage 1 on the spot node.
	exposed, err := config.Balanced(g, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := config.Weighted(g, []int{8, 8}, 2, nil, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	const iter = 2.0
	lam := cl.RangeHazard(8, 8) / 3600
	if lam <= 0 {
		t.Fatal("the spot node carries no hazard")
	}
	rec, ck := recoveryIters*iter, checkpointIters*iter

	if _, k := obj.assess(replicated, iter); k != maxRecommendedCadence {
		t.Errorf("replicated plan checkpoints every %d, want the cap %d: nothing is rollback-exposed", k, maxRecommendedCadence)
	}
	want := iter + ck/maxRecommendedCadence + iter*lam*rec
	if got := obj.score(replicated, iter); got != want {
		t.Errorf("replicated plan scores %v, want nominal + amortized checkpoint + hazard×recovery = %v", got, want)
	}

	_, k := obj.assess(exposed, iter)
	if k < 1 || k >= maxRecommendedCadence {
		t.Errorf("exposed plan checkpoints every %d, want a Young–Daly cadence under the cap", k)
	}
	if got, want := obj.score(exposed, iter), perfmodel.ExpectedIterTime(iter, lam, k, rec, ck); got != want {
		t.Errorf("exposed plan scores %v, want ExpectedIterTime = %v", got, want)
	}
	if obj.score(exposed, iter) <= obj.score(replicated, iter) {
		t.Error("losing steps must cost more than recovery alone")
	}
}

// TestSeedChoice pins the rule a spot fleet's start comes from.
func TestSeedChoice(t *testing.T) {
	g, _ := model.GPT3("13B")
	cl := hardware.ReservedSpotV100(8, 1, 1, 6, 120)
	obj := newObjective(&cl)
	pm := perfmodel.New(g, cl, 1)
	fits, err := config.Balanced(g, 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Half the model on the first stage's four devices does not fit in
	// their 32 GB.
	oom, err := config.ImbalancedOps(g, 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !pm.Estimate(fits).Feasible || pm.Estimate(oom).Feasible {
		t.Fatalf("setup: fits feasible %v, oom feasible %v", pm.Estimate(fits).Feasible, pm.Estimate(oom).Feasible)
	}
	if got := obj.cheaper(pm, oom, fits); got != fits {
		t.Error("an infeasible hazard-biased start beat a feasible plain one")
	}
	if got := obj.cheaper(pm, fits, oom); got != fits {
		t.Error("an infeasible plain start beat a feasible hazard-biased one")
	}
	if twin := fits.Clone(); obj.cheaper(pm, fits, twin) != fits || obj.cheaper(pm, twin, fits) != twin {
		t.Error("a tie must go to the hazard-biased start")
	}

	// A lone start is never priced: a classed fleet without hazard
	// builds one candidate and estimates nothing outside the searcher;
	// the spot fleet prices its two.
	for _, tc := range []struct {
		name      string
		cl        hardware.Cluster
		estimates bool
	}{
		{"classes, no hazard", cl.StripHazard(), false},
		{"spot", cl, true},
	} {
		pm := perfmodel.New(g, tc.cl, 1)
		obj := newObjective(&tc.cl)
		if _, err := obj.seeds(g, pm, nil)(g, 16, 4, 2); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		hits, misses := pm.StageCacheStats()
		if got := hits+misses > 0; got != tc.estimates {
			t.Errorf("%s: seeding estimated = %v (stage cache %d hits, %d misses), want %v", tc.name, got, hits, misses, tc.estimates)
		}
	}
}
