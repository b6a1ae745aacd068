package aceso_test

import (
	"context"
	"fmt"
	"time"

	"aceso"
)

// One Example per entry point of the facade: together they are its
// compile-checked contract. Every search is bounded by iterations, not
// by the clock, so the outputs are exact.

// ExampleSearch searches a parallel configuration for GPT-3 350M on
// four simulated V100s and reports whether the result fits in memory.
func ExampleSearch() {
	g, err := aceso.GPT3("350M")
	if err != nil {
		panic(err)
	}
	cl := aceso.DGX1V100(1).Restrict(4)
	res, err := aceso.Search(g, cl, aceso.Options{
		TimeBudget: 500 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("feasible:", res.Best.Estimate.Feasible)
	fmt.Println("within memory:", res.Best.Estimate.PeakMem <= cl.MemoryBytes)
	// Output:
	// feasible: true
	// within memory: true
}

// ExampleSearch_spot plans on a fleet that is half spot capacity: the
// objective becomes expected iteration time under the reclaim hazard,
// and the result recommends a checkpoint cadence.
func ExampleSearch_spot() {
	g, err := aceso.GPT3("350M")
	if err != nil {
		panic(err)
	}
	cl := aceso.ReservedSpotV100(8, 1, 1, 6, 120) // 8 reserved + 8 spot V100s, 6 reclaims/hour, 120 s notice
	res, err := aceso.Search(g, cl, aceso.Options{TimeBudget: time.Hour, MaxIterations: 1, StageCounts: []int{2}, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("expected time at least nominal:", res.Best.Score >= res.Best.Estimate.IterTime)
	fmt.Println("cadence recommended:", res.RecommendedCadence > 0)
	// Output:
	// expected time at least nominal: true
	// cadence recommended: true
}

// ExampleSearchContext searches a mixed A100+V100 fleet under a
// context: a finished search is not partial, and a canceled one still
// returns the best plan it had.
func ExampleSearchContext() {
	g, err := aceso.GPT3("350M")
	if err != nil {
		panic(err)
	}
	cl := aceso.A100V100(1, 1)
	opts := aceso.Options{TimeBudget: time.Hour, MaxIterations: 1, StageCounts: []int{2}, Seed: 1}
	res, err := aceso.SearchContext(context.Background(), g, cl, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("partial:", res.Partial, "feasible:", res.Best.Estimate.Feasible)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = aceso.SearchContext(ctx, g, cl, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("partial:", res.Partial, "has a plan:", res.Best.Config != nil)
	// Output:
	// partial: false feasible: true
	// partial: true has a plan: true
}

// ExampleDegrade wounds a cluster: a dead device leaves the fleet, a
// derated one stays and runs slower.
func ExampleDegrade() {
	cl := aceso.DGX1V100(1)
	deg, err := aceso.Degrade(cl, aceso.FaultSpec{Devices: []aceso.DeviceFault{
		{Device: 7, Dead: true},
		{Device: 1, FLOPSScale: 0.5, MemScale: 1},
	}})
	if err != nil {
		panic(err)
	}
	fmt.Println("devices:", cl.TotalDevices(), "→", deg.TotalDevices())
	// Output:
	// devices: 8 → 7
}

// ExampleReplan plans on a healthy cluster, then replans around a
// straggler from the plan it had.
func ExampleReplan() {
	g, err := aceso.GPT3("350M")
	if err != nil {
		panic(err)
	}
	cl := aceso.DGX1V100(1).Restrict(4)
	opts := aceso.Options{TimeBudget: time.Hour, MaxIterations: 2, Seed: 1}
	base, err := aceso.Search(g, cl, opts)
	if err != nil {
		panic(err)
	}
	faults := aceso.FaultSpec{Devices: []aceso.DeviceFault{{Device: 1, FLOPSScale: 0.5, MemScale: 1}}}
	res, err := aceso.Replan(context.Background(), g, cl, faults, base.Best.Config, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("feasible:", res.Best.Estimate.Feasible)
	fmt.Println("slower than healthy:", res.Best.Estimate.IterTime > base.Best.Estimate.IterTime)
	// Output:
	// feasible: true
	// slower than healthy: true
}

// ExampleWarmStart carries a plan across a resize: the search on the
// smaller cluster starts from the projection of the plan it had.
func ExampleWarmStart() {
	g, err := aceso.GPT3("350M")
	if err != nil {
		panic(err)
	}
	opts := aceso.Options{TimeBudget: time.Hour, MaxIterations: 1, StageCounts: []int{2}, Seed: 1}
	before, err := aceso.Search(g, aceso.DGX1V100(1), opts)
	if err != nil {
		panic(err)
	}
	opts.Initializer = aceso.WarmStart(before.Best.Config)
	after, err := aceso.Search(g, aceso.DGX1V100(1).Restrict(4), opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("devices:", before.Best.Config.TotalDevices(), "→", after.Best.Config.TotalDevices())
	// Output:
	// devices: 8 → 4
}

// ExampleSimulate executes a manual 2-stage configuration in the
// discrete-event 1F1B runtime simulator.
func ExampleSimulate() {
	g, err := aceso.GPT3("350M")
	if err != nil {
		panic(err)
	}
	cl := aceso.DGX1V100(1).Restrict(4)
	cfg, err := aceso.Balanced(g, 4, 2, 1)
	if err != nil {
		panic(err)
	}
	sim, err := aceso.Simulate(g, cl, cfg, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("trained an iteration:", sim.IterTime > 0)
	fmt.Println("OOM:", sim.OOM)
	// Output:
	// trained an iteration: true
	// OOM: false
}

// ExampleEstimateConfig predicts iteration time and memory for a
// configuration without executing it.
func ExampleEstimateConfig() {
	g, err := aceso.GPT3("350M")
	if err != nil {
		panic(err)
	}
	cl := aceso.DGX1V100(1).Restrict(4)
	cfg, err := aceso.Balanced(g, 4, 4, 1)
	if err != nil {
		panic(err)
	}
	est := aceso.EstimateConfig(g, cl, cfg, 1)
	fmt.Println("stages:", len(est.Stages))
	fmt.Println("positive time:", est.IterTime > 0)
	// Output:
	// stages: 4
	// positive time: true
}
