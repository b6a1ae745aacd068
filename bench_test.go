// Micro-benchmarks of the planner's layers, for measuring while you
// work: the repository's performance reference is bench/ (`go run -C
// bench .`, BENCHMARK.json), and the paper's figures and tables are
// cmd/acesobench targets. BenchmarkSearchThroughput is the profiling
// entry point for the paper's pinned search:
//
//	go test -run '^$' -bench BenchmarkSearchThroughput -benchtime 40x -cpuprofile cpu.out .
package aceso

import (
	"testing"
	"time"

	"aceso/internal/perfmodel"
)

// BenchmarkSearchThroughput measures raw search speed on the paper's
// GPT-3 2.6B / 16-GPU setting. The search is iteration-bounded rather
// than time-bounded so ns/op tracks the machinery's cost per fixed
// amount of exploration: a faster hot path means more configurations
// per fixed TimeBudget in real searches (Algorithm 1 explores until
// the deadline, so configs/second is search quality).
func BenchmarkSearchThroughput(b *testing.B) {
	g, err := GPT3("2.6B")
	if err != nil {
		b.Fatal(err)
	}
	cl := DGX1V100(2) // 16 V100s
	var explored int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search(g, cl, Options{
			TimeBudget:    time.Hour, // never expires; MaxIterations bounds the run
			MaxIterations: 4,
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		explored = res.Explored
	}
	b.ReportMetric(float64(explored), "explored")
}

// BenchmarkEstimate measures the performance model's evaluation rate —
// the inner loop of everything.
func BenchmarkEstimate(b *testing.B) {
	g, err := GPT3("2.6B")
	if err != nil {
		b.Fatal(err)
	}
	cl := DGX1V100(1)
	pm := perfmodel.New(g, cl, 1)
	cfg, err := Balanced(g, 8, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if est := pm.Estimate(cfg); !est.Feasible && est.IterTime <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkEstimateNeighbor measures the search's actual inner step:
// clone a configuration, flip one op's recompute flag through the
// invalidation helpers, and re-estimate. With the memoized hashes and
// the stage-level cache only the mutated stage is re-evaluated; the
// other stages are cache hits.
func BenchmarkEstimateNeighbor(b *testing.B) {
	g, err := GPT3("2.6B")
	if err != nil {
		b.Fatal(err)
	}
	cl := DGX1V100(1)
	pm := perfmodel.New(g, cl, 1)
	cfg, err := Balanced(g, 8, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	pm.Estimate(cfg) // warm the stage cache for the base config
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := cfg.Clone()
		st := i % n.NumStages()
		n.MutOp(st, n.Stages[st].Start, func(op *OpSetting) { op.Recompute = !op.Recompute })
		if est := pm.Estimate(n); !est.Feasible && est.IterTime <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkSimulate measures the discrete-event runtime simulator.
func BenchmarkSimulate(b *testing.B) {
	g, err := GPT3("1.3B")
	if err != nil {
		b.Fatal(err)
	}
	cl := DGX1V100(1).Restrict(4)
	cfg, err := Balanced(g, 4, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(g, cl, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}
