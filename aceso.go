// Package aceso is a from-scratch Go implementation of Aceso (Liu et
// al., EuroSys 2024): an automatic parallel-training configurator that
// searches the joint space of data parallelism, tensor parallelism,
// pipeline parallelism, microbatching and recomputation by iteratively
// identifying the bottleneck pipeline stage and applying the
// reconfiguration primitive that best alleviates it.
//
// The package is a thin facade over the internal packages:
//
//	model     operator-level IR and builders (GPT-3, T5, Wide-ResNet, …)
//	hardware  parametric cluster descriptions
//	perfmodel the profiling-based performance model (Eq. 1–2)
//	pipesim   a discrete-event 1F1B runtime simulator ("execution")
//	core      the bottleneck-alleviation search itself
//
// Quick start:
//
//	g, _ := aceso.GPT3("1.3B")
//	cl := aceso.DGX1V100(1).Restrict(4)
//	res, _ := aceso.Search(g, cl, aceso.Options{TimeBudget: 2 * time.Second})
//	fmt.Println(res.Best.Config)
package aceso

import (
	"context"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
)

// The names a caller of the entry points below needs. External callers
// cannot import the internal packages; these aliases are the public
// names, and example_test.go is their compile-checked contract.
type (
	// Graph is a sequential DNN model at operator granularity.
	Graph = model.Graph
	// Cluster describes the accelerator cluster.
	Cluster = hardware.Cluster
	// Config is a complete parallel-training configuration.
	Config = config.Config
	// OpSetting is the per-operator parallelization inside a stage.
	OpSetting = config.OpSetting
	// Options tunes the search (time budget, MaxHops, ablations, …).
	Options = core.Options
	// Result is a search outcome (best config, top-K, statistics).
	Result = core.Result
	// Estimate is the performance model's prediction for a Config.
	Estimate = perfmodel.Estimate
	// SimResult is the runtime simulator's observation of a Config.
	SimResult = pipesim.Result
	// Initializer builds starting configurations (Options.Initializer).
	Initializer = core.Initializer
	// FaultSpec describes a degraded cluster: dead devices, per-device
	// FLOPS/memory deratings, and derated links.
	FaultSpec = hardware.FaultSpec
	// DeviceFault is one device's entry in a FaultSpec.
	DeviceFault = hardware.DeviceFault
)

// Model and cluster constructors.
var (
	// GPT3 builds a GPT-3 decoder stack: "350M", "1.3B", "2.6B",
	// "6.7B" or "13B".
	GPT3 = model.GPT3
	// T5 builds a T5 encoder-decoder: "770M", "3B", "6B", "11B", "22B".
	T5 = model.T5
	// WideResNet builds a widened ResNet-50: "0.5B", "2B", "4B",
	// "6.8B", "13B".
	WideResNet = model.WideResNet
	// Llama builds a Llama-3-style decoder ("8B", "70B") — a modern
	// workload beyond the paper's evaluation set.
	Llama = model.Llama
	// DeepTransformer builds the 1K-layer-scalability model.
	DeepTransformer = model.DeepTransformer
	// DGX1V100 builds an n-node cluster of 8×V100-32GB servers.
	DGX1V100 = hardware.DGX1V100
	// A100V100 builds a mixed fleet: a A100 nodes then v V100 nodes.
	A100V100 = hardware.A100V100
	// ReservedSpotV100 builds a mixed-capacity V100 fleet: r reserved
	// nodes then s spot nodes, each spot device reclaimed hazard
	// times/hour with notice seconds of warning. A search on it
	// minimizes expected iteration time and recommends a checkpoint
	// cadence (Result.RecommendedCadence).
	ReservedSpotV100 = hardware.ReservedSpotV100
	// Balanced is the default initial configuration (FLOPs-balanced
	// stages), and the starting point of a hand-built one.
	Balanced = config.Balanced
)

// Search runs the Aceso configuration search for graph g over cluster
// cl (Algorithm 1; one parallel worker per pipeline depth).
func Search(g *Graph, cl Cluster, opts Options) (*Result, error) {
	return core.Search(g, cl, opts)
}

// SearchContext is Search with caller-controlled cancellation: the
// search stops at ctx cancellation or deadline (whichever fires first,
// including Options.TimeBudget) and still returns the best
// configurations found so far, with Result.Partial set. A worker that
// panics is isolated and reported as a *core.SearchError in
// Result.Diagnostics while the remaining pipeline depths finish.
func SearchContext(ctx context.Context, g *Graph, cl Cluster, opts Options) (*Result, error) {
	return core.SearchContext(ctx, g, cl, opts)
}

// Replan re-runs the search for a cluster degraded by faults (dead
// devices, stragglers, derated links), seeded from the surviving
// previous configuration so it converges quickly on a repaired plan.
// prev may be nil for a cold-start search over the degraded cluster.
func Replan(ctx context.Context, g *Graph, cl Cluster, faults FaultSpec, prev *Config, opts Options) (*Result, error) {
	return core.Replan(ctx, g, cl, faults, prev, opts)
}

// Degrade applies a fault specification to a healthy cluster,
// returning the degraded cluster the performance model and search
// consume. Dead devices are removed (surviving devices renumbered);
// derated devices and links keep their logical place but run slower.
func Degrade(cl Cluster, faults FaultSpec) (Cluster, error) {
	return cl.Degrade(faults)
}

// WarmStart wraps a previous best configuration as a search
// Initializer for a resized cluster: the plan is projected onto the new
// device count and the search moves outward from it.
func WarmStart(prev *Config) Initializer { return core.WarmStart(prev) }

// EstimateConfig predicts iteration time and memory for cfg with a
// fresh performance model.
func EstimateConfig(g *Graph, cl Cluster, cfg *Config, seed int64) *Estimate {
	return perfmodel.New(g, cl, seed).Estimate(cfg)
}

// Simulate executes cfg in the discrete-event 1F1B runtime simulator
// and returns the observed iteration time and peak memory.
func Simulate(g *Graph, cl Cluster, cfg *Config, seed int64) (*SimResult, error) {
	return pipesim.Simulate(perfmodel.New(g, cl, seed), cfg, seed)
}
