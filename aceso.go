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
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
)

// Re-exported core types. External callers cannot import the internal
// packages directly; these aliases are the public names.
type (
	// Graph is a sequential DNN model at operator granularity.
	Graph = model.Graph
	// Op is one operator of a Graph.
	Op = model.Op
	// Cluster describes the accelerator cluster.
	Cluster = hardware.Cluster
	// Config is a complete parallel-training configuration.
	Config = config.Config
	// Stage is one pipeline stage of a Config.
	Stage = config.Stage
	// OpSetting is the per-operator parallelization inside a stage.
	OpSetting = config.OpSetting
	// Options tunes the search (time budget, MaxHops, ablations, …).
	Options = core.Options
	// Result is a search outcome (best config, top-K, statistics).
	Result = core.Result
	// Candidate pairs a configuration with its estimate.
	Candidate = core.Candidate
	// Estimate is the performance model's prediction for a Config.
	Estimate = perfmodel.Estimate
	// StageMetrics is the per-stage slice of an Estimate.
	StageMetrics = perfmodel.StageMetrics
	// SimResult is the runtime simulator's observation of a Config.
	SimResult = pipesim.Result
	// PerfModel predicts execution time and memory for configurations.
	PerfModel = perfmodel.Model
	// Initializer builds starting configurations (Exp#7 variants).
	Initializer = core.Initializer
	// SearchError is a typed per-worker failure (panic or initializer
	// error) reported in Result.Diagnostics.
	SearchError = core.SearchError
	// DeviceClass describes one device generation of a heterogeneous
	// cluster (per-class FLOPS, utilization, memory, link overrides).
	DeviceClass = hardware.DeviceClass
	// FaultSpec describes a degraded cluster: dead devices, per-device
	// FLOPS/memory deratings, and derated links.
	FaultSpec = hardware.FaultSpec
	// DeviceFault is one device's entry in a FaultSpec.
	DeviceFault = hardware.DeviceFault
	// Tracer receives structured search events (set Options.Tracer).
	Tracer = obs.Tracer
	// IterationEvent is one JSONL search-trace record.
	IterationEvent = obs.IterationEvent
	// JSONLTracer collects iteration events as deterministic JSON Lines.
	JSONLTracer = obs.JSONLTracer
	// Auditor asserts resource-accounting invariants on every estimate.
	Auditor = obs.Auditor
	// MetricsRegistry accumulates search counters/timers/histograms
	// (set Options.Metrics); exportable as JSON or Prometheus text.
	MetricsRegistry = obs.Registry
)

// Precision of a model's training arithmetic.
const (
	FP16 = hardware.FP16
	FP32 = hardware.FP32
)

// Model builders (Table 2 of the paper).
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
	// Mixed builds a heterogeneous cluster from a per-node class layout.
	Mixed = hardware.Mixed
	// A100Class/V100Class are the canonical device-class descriptions.
	A100Class = hardware.A100Class
	V100Class = hardware.V100Class
	// ReservedSpotV100 builds a mixed-capacity V100 fleet: r reserved
	// nodes then s spot nodes, each spot device reclaimed hazard
	// times/hour with notice seconds of warning (DESIGN.md §5k).
	ReservedSpotV100 = hardware.ReservedSpotV100
	// AsSpot derives the spot twin of a device class.
	AsSpot = hardware.AsSpot
	// RiskAssess prices an existing plan under a cluster's preemption
	// hazard: expected iteration time + recommended checkpoint cadence.
	RiskAssess = core.RiskAssess
)

// Initial-configuration builders.
var (
	// Balanced is the default initializer (FLOPs-balanced stages).
	Balanced = config.Balanced
	// ImbalancedOps/ImbalancedGPUs are the Exp#7 robustness variants.
	ImbalancedOps  = config.ImbalancedOps
	ImbalancedGPUs = config.ImbalancedGPUs
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
// panics is isolated and reported as a *SearchError in
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

// ProjectConfig adapts a configuration to a different device count,
// preserving its structure — the warm start for elastic
// reconfiguration after cluster resizes.
func ProjectConfig(g *Graph, old *Config, newDevices int) (*Config, error) {
	return core.ProjectConfig(g, old, newDevices)
}

// WarmStart wraps a previous best configuration as a search
// Initializer for a resized cluster.
func WarmStart(prev *Config) Initializer { return core.WarmStart(prev) }

// Observability constructors (DESIGN.md §5d).
var (
	// NewJSONLTracer returns a deterministic JSONL search-trace
	// collector for Options.Tracer.
	NewJSONLTracer = obs.NewJSONLTracer
	// NewAuditor returns a breakdown auditor for Options.Tracer.
	NewAuditor = obs.NewAuditor
	// NewMetricsRegistry returns an empty registry for Options.Metrics.
	NewMetricsRegistry = obs.NewRegistry
	// MultiTracer fans events out to several tracers (nils dropped).
	MultiTracer = obs.MultiTracer
	// AuditEstimate checks one estimate's resource-accounting
	// invariants, returning a description of each violation.
	AuditEstimate = obs.AuditEstimate
)

// NewPerfModel builds a performance model with a fresh (deterministic,
// seeded) profiling database for the given graph and cluster.
func NewPerfModel(g *Graph, cl Cluster, seed int64) *PerfModel {
	return perfmodel.New(g, cl, seed)
}

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
