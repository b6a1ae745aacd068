// Package alpa implements an Alpa-like two-level automated-parallelism
// baseline (Zheng et al., OSDI'22) against the same performance
// substrate as Aceso.
//
// Faithfully to the system the paper compares against, this baseline:
//
//   - groups operators into l contiguous layer groups and never
//     configures below group granularity;
//   - runs an inter-op dynamic program that partitions the groups into
//     pipeline stages over an even device split;
//   - chooses each stage's intra-op plan (tp×dp factorization) with a
//     communication-only cost estimator — the §5.1 simplification
//     ("the computation time of all operators is treated as 0 ... only
//     communication time is considered") that makes Alpa prefer data
//     parallelism and miss compute-efficiency-driven mixes;
//   - treats recomputation and microbatch size as manual grid axes
//     (model-wide recomputation only, no op-level choice);
//   - pays a compile-and-profile charge per distinct kernel it
//     evaluates. Real Alpa compiles XLA executables for every (group,
//     sharding) it costs, which dominates its hours-long search time;
//     with no XLA here, each distinct kernel is charged
//     Options.CompileCost and reported in EmulatedSearchCost.
//
// Deep-model behaviour follows the published observation (Exp#3):
// compilation fails beyond 64 layers, reported as ErrTooDeep.
package alpa

import (
	"errors"
	"fmt"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// MaxCompilableLayers is the deepest model the emulated XLA pipeline
// accepts, matching the failure point observed in the paper's Exp#3.
const MaxCompilableLayers = 64

// ErrTooDeep reports the emulated compilation failure on deep models.
var ErrTooDeep = errors.New("alpa: XLA compilation failed (model deeper than 64 layers)")

// Options bounds the grid axes that Alpa configures manually.
type Options struct {
	// LayerGroupsGrid lists the l values to grid over (default {8, 16},
	// clamped to the model's layer count).
	LayerGroupsGrid []int
	// MaxMicroBatch caps the microbatch axis (default 64).
	MaxMicroBatch int
	// CompileCost is the emulated per-kernel compile+profile charge
	// (default 200ms — of the order real XLA compilation costs).
	CompileCost time.Duration
	// Model optionally reuses a shared performance model.
	Model *perfmodel.Model
	// Seed feeds the profiler when Model is nil.
	Seed int64
}

// Result is the outcome of the Alpa-like search.
type Result struct {
	Best      *config.Config
	Estimate  *perfmodel.Estimate
	Evaluated int // full configurations evaluated
	Kernels   int // distinct kernels compiled+profiled
	// Elapsed is the solver's measured wall time; EmulatedSearchCost
	// adds the per-kernel compile charge (the figure comparable to the
	// paper's reported Alpa search cost).
	Elapsed            time.Duration
	EmulatedSearchCost time.Duration
}

// Search runs the Alpa-like search for graph g over cluster cl.
func Search(g *model.Graph, cl hardware.Cluster, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if layers := g.Layers(); layers > MaxCompilableLayers {
		return nil, fmt.Errorf("%w: %d layers", ErrTooDeep, layers)
	}
	if opts.MaxMicroBatch <= 0 {
		opts.MaxMicroBatch = 64
	}
	if opts.CompileCost <= 0 {
		opts.CompileCost = 200 * time.Millisecond
	}
	if len(opts.LayerGroupsGrid) == 0 {
		opts.LayerGroupsGrid = []int{8, 16}
	}
	pm := opts.Model
	if pm == nil {
		pm = perfmodel.New(g, cl, opts.Seed)
	}
	start := time.Now()
	devices := cl.TotalDevices()

	res := &Result{}
	kernels := make(map[kernelKey]bool)
	var bestTime float64
	for _, l := range opts.LayerGroupsGrid {
		if l > len(g.Ops) {
			l = len(g.Ops)
		}
		if l < 1 {
			continue
		}
		// Alpa clusters operators into l uniform layer groups before
		// solving; boundaries are op-count-even, not cost-balanced —
		// part of why coarse granularity costs it plan quality.
		groups := evenGroups(len(g.Ops), l)
		for mbs := 1; mbs <= g.GlobalBatch && mbs <= opts.MaxMicroBatch; mbs *= 2 {
			if g.GlobalBatch%mbs != 0 {
				continue
			}
			for _, recomp := range []bool{false, true} {
				cfg := interOpDP(pm, g, groups, devices, mbs, recomp, kernels)
				if cfg == nil {
					continue
				}
				res.Evaluated++
				est := pm.Estimate(cfg)
				if !est.Feasible {
					continue
				}
				if res.Best == nil || est.IterTime < bestTime {
					res.Best, res.Estimate, bestTime = cfg, est, est.IterTime
				}
			}
		}
	}
	res.Kernels = len(kernels)
	res.Elapsed = time.Since(start)
	res.EmulatedSearchCost = res.Elapsed + time.Duration(res.Kernels)*opts.CompileCost
	if res.Best == nil {
		return res, fmt.Errorf("alpa: no feasible configuration found")
	}
	return res, nil
}

type kernelKey struct {
	gFrom, gTo, tp, dp, mbs int
	recomp                  bool
}

// interOpDP partitions the layer groups into pipeline stages. For each
// stage count it runs the classic linear-partition DP minimizing the
// bottleneck stage cost, then materializes the best configuration.
func interOpDP(pm *perfmodel.Model, g *model.Graph, groups [][2]int,
	devices, mbs int, recomp bool, kernels map[kernelKey]bool) *config.Config {

	l := len(groups)
	var best *config.Config
	var bestCost float64
	maxStages := l
	if devices < maxStages {
		maxStages = devices
	}
	for s := 1; s <= maxStages; s++ {
		devs, err := config.DeviceSplit(devices, s)
		if err != nil {
			continue
		}
		cfg, cost := partitionDP(pm, g, groups, devs, mbs, recomp, kernels)
		if cfg == nil {
			continue
		}
		if best == nil || cost < bestCost {
			best, bestCost = cfg, cost
		}
	}
	return best
}

// partitionDP assigns contiguous group ranges to the given per-stage
// device counts, minimizing the maximum per-stage cost under Alpa's
// comm-only intra-op estimator.
func partitionDP(pm *perfmodel.Model, g *model.Graph, groups [][2]int,
	devs []int, mbs int, recomp bool, kernels map[kernelKey]bool) (*config.Config, float64) {

	l := len(groups)
	s := len(devs)
	if l < s {
		return nil, 0
	}
	const inf = 1e30
	// f[i][j]: groups[0..i) assigned to stages[0..j); value = max cost.
	f := make([][]float64, l+1)
	cut := make([][]int, l+1)
	tpOf := make([][]int, l+1) // chosen tp for the stage ending the prefix
	for i := range f {
		f[i] = make([]float64, s+1)
		cut[i] = make([]int, s+1)
		tpOf[i] = make([]int, s+1)
		for j := range f[i] {
			f[i][j] = inf
		}
	}
	f[0][0] = 0
	for j := 1; j <= s; j++ {
		for i := j; i <= l-(s-j); i++ {
			for k := j - 1; k < i; k++ {
				if f[k][j-1] >= inf {
					continue
				}
				cost, tp := stageCost(pm, g, groups[k][0], groups[i-1][1], devs[j-1], mbs, recomp, k, i, kernels)
				if cost >= inf {
					continue
				}
				v := f[k][j-1]
				if cost > v {
					v = cost
				}
				if v < f[i][j] {
					f[i][j] = v
					cut[i][j] = k
					tpOf[i][j] = tp
				}
			}
		}
	}
	if f[l][s] >= inf {
		return nil, 0
	}
	// Reconstruct.
	type stagePlan struct{ from, to, tp int }
	plans := make([]stagePlan, s)
	i := l
	for j := s; j >= 1; j-- {
		k := cut[i][j]
		plans[j-1] = stagePlan{groups[k][0], groups[i-1][1], tpOf[i][j]}
		i = k
	}
	cfg := &config.Config{MicroBatch: mbs, Stages: make([]config.Stage, s)}
	for j, pl := range plans {
		set := config.OpSetting{TP: pl.tp, DP: devs[j] / pl.tp, Recompute: recomp}
		cfg.Stages[j] = config.UniformStage(pl.from, pl.to, devs[j], set)
	}
	if err := cfg.Validate(g, cfg.TotalDevices()); err != nil {
		return nil, 0
	}
	return cfg, f[l][s]
}

// stageCost evaluates one candidate stage the way Alpa does: the
// intra-op pass enumerates tp×dp factorizations of the stage's devices,
// keeps the memory-feasible ones, and picks the one with the lowest
// communication time — computation differences between shardings are
// ignored (the §5.1 simplification that makes Alpa miss compute-
// efficiency-driven mixes). The inter-op DP, however, balances stages
// on their full per-microbatch latency, which Alpa's stage model does
// capture; that latency of the comm-chosen sharding is returned.
func stageCost(pm *perfmodel.Model, g *model.Graph, from, to, devices, mbs int,
	recomp bool, gFrom, gTo int, kernels map[kernelKey]bool) (float64, int) {

	const inf = 1e30
	bestComm := inf
	bestTime := inf
	bestTP := 0
	for tp := 1; tp <= devices; tp *= 2 {
		dp := devices / tp
		if tp*dp != devices || mbs%dp != 0 {
			continue
		}
		kernels[kernelKey{gFrom, gTo, tp, dp, mbs, recomp}] = true
		sm, err := pm.EvalStage(from, to, devices, tp, dp, recomp, mbs, 0, 1, 0)
		if err != nil {
			continue
		}
		if sm.ParamMem+sm.OptMem+sm.ActPerMB+sm.ExtraMem > pm.Cluster.MemoryBytes {
			continue
		}
		comm := sm.TPComm + sm.DPSync/float64(maxInt(1, g.GlobalBatch/mbs))
		if comm < bestComm {
			bestComm = comm
			bestTime = sm.FwdTime + sm.BwdTime
			bestTP = tp
		}
	}
	if bestTP == 0 {
		return inf, 0
	}
	return bestTime, bestTP
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// evenGroups clusters n operators into l contiguous, op-count-even
// groups.
func evenGroups(n, l int) [][2]int {
	if l > n {
		l = n
	}
	out := make([][2]int, 0, l)
	for i := 0; i < l; i++ {
		out = append(out, [2]int{i * n / l, (i + 1) * n / l})
	}
	return out
}
