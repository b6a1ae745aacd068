package core

import (
	"testing"
	"time"

	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// TestHeteroSearchBeatsClassBlind pins the tentpole property: on a
// mixed A100+V100 fleet, the heterogeneity-aware search must find a
// plan whose estimated iteration time under the true mixed-class model
// is strictly lower than the best plan a class-blind planner produces.
//
// The class-blind planner sees the same scalar envelope with the class
// table stripped — every device looks like the best class — and its
// plans are then re-priced under the true mixed model, exactly the
// penalty a homogeneous planner pays when deployed on a real mixed
// fleet.
func TestHeteroSearchBeatsClassBlind(t *testing.T) {
	g, err := model.GPT3("1.3B")
	if err != nil {
		t.Fatal(err)
	}
	mixed := hardware.A100V100(1, 1) // 8×A100-80GB + 8×V100-32GB
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		TimeBudget:    time.Hour, // iterations are the binding limit
		MaxIterations: 4,
		StageCounts:   []int{2, 4},
		Seed:          1,
	}

	hetero, err := Search(g, mixed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hetero.Best.Estimate.Feasible {
		t.Fatal("hetero-aware search found no feasible plan")
	}

	// Class-blind: identical envelope, no class table. The blind search
	// runs against a fiction where every rank is full-speed with 80 GiB.
	blind := mixed
	blind.Classes = nil
	blind.NodeClass = nil
	blindRes, err := Search(g, blind, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Re-price every blind candidate under the true mixed model and
	// keep the best feasible one — the strongest plan a class-blind
	// planner could actually deploy.
	truth := perfmodel.New(g, mixed, opts.Seed)
	bestBlind := 0.0
	for _, cand := range blindRes.TopK {
		if cand.Config == nil {
			continue
		}
		est := truth.Estimate(cand.Config)
		if est.Feasible && (bestBlind == 0 || est.IterTime < bestBlind) {
			bestBlind = est.IterTime
		}
	}
	if bestBlind == 0 {
		// Every blind plan OOMs on the V100 half: the hetero planner
		// wins outright, but that makes the strict-time comparison
		// vacuous — flag it so the shapes can be retuned.
		t.Fatal("no class-blind plan is feasible on the mixed cluster; pick a smaller model for a strict comparison")
	}
	heteroTime := hetero.Best.Estimate.IterTime
	if heteroTime >= bestBlind {
		t.Errorf("hetero-aware plan (%.6fs) is not strictly better than the best class-blind plan (%.6fs)",
			heteroTime, bestBlind)
	}
}

// TestHeteroInitializerShiftsOps pins the placement mechanism: with
// A100 nodes first, the seed rule of a classed fleet must assign the
// fast first stage at least as many FLOPs as Balanced would, so
// compute-heavy work gravitates to the fast class from iteration zero.
func TestHeteroInitializerShiftsOps(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	mixed := hardware.A100V100(1, 1)
	// Two stages over 16 devices: stage 0 on the A100 node, stage 1 on
	// the V100 node.
	obj := newObjective(&mixed)
	heteroInit, err := obj.seeds(g, perfmodel.New(g, mixed, 1), nil)(g, 16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := heteroInit.Stages[0].End; got <= len(g.Ops)/2 {
		t.Errorf("capacity-balanced stage 0 ends at op %d of %d; want more than the uniform half on the A100 stage",
			got, len(g.Ops))
	}
}
