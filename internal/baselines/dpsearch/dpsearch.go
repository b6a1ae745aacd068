// Package dpsearch is the pruned dynamic-programming comparator of
// Exp#4: a mathematical-programming search over the same configuration
// space (pipeline partition × per-stage tp/dp × per-stage
// recomputation × microbatch size), sharing Aceso's performance model
// for fairness, that explores orders of magnitude more configurations
// than the bottleneck-guided search to reach comparable plans.
//
// As in the paper, the space is pruned to stay tractable: stage sizes
// are bounded around the even split, tp/dp are powers of two, and the
// microbatch axis is a short list. Explored counts every candidate
// (op-range, devices, tp, dp, recompute) transition the DP considers —
// the figure Figure 10(a) plots.
package dpsearch

import (
	"fmt"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// Options bounds the pruned DP.
type Options struct {
	// MaxStages caps the pipeline depth (default 8).
	MaxStages int
	// MicroBatches lists the microbatch sizes to try (default {1,2,4}).
	MicroBatches []int
	// SlackFactor bounds stage op counts to [even/SlackFactor,
	// even·SlackFactor] (default 2).
	SlackFactor int
	// Model optionally reuses a shared performance model.
	Model *perfmodel.Model
	// Seed feeds the profiler when Model is nil.
	Seed int64
}

// Result is the outcome of the DP search.
type Result struct {
	Best     *config.Config
	Estimate *perfmodel.Estimate
	Explored int // candidate stage assignments considered (Fig 10a)
	Elapsed  time.Duration
}

// Search runs the pruned dynamic program for graph g over cluster cl.
func Search(g *model.Graph, cl hardware.Cluster, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxStages <= 0 {
		opts.MaxStages = 8
	}
	if len(opts.MicroBatches) == 0 {
		opts.MicroBatches = []int{1, 2, 4}
	}
	if opts.SlackFactor <= 1 {
		opts.SlackFactor = 2
	}
	pm := opts.Model
	if pm == nil {
		pm = perfmodel.New(g, cl, opts.Seed)
	}
	start := time.Now()
	res := &Result{}
	var bestTime float64
	devices := cl.TotalDevices()

	for _, mbs := range opts.MicroBatches {
		if g.GlobalBatch%mbs != 0 {
			continue
		}
		for s := 1; s <= opts.MaxStages && s <= devices && s <= len(g.Ops); s++ {
			devs, err := config.DeviceSplit(devices, s)
			if err != nil {
				continue
			}
			cfg := run(pm, g, devs, mbs, opts.SlackFactor, &res.Explored)
			if cfg == nil {
				continue
			}
			est := pm.Estimate(cfg)
			if !est.Feasible {
				continue
			}
			if res.Best == nil || est.IterTime < bestTime {
				res.Best, res.Estimate, bestTime = cfg, est, est.IterTime
			}
		}
	}
	res.Elapsed = time.Since(start)
	if res.Best == nil {
		return res, fmt.Errorf("dpsearch: no feasible configuration found")
	}
	return res, nil
}

// choice is a memoized per-stage evaluation.
type choice struct {
	cost float64 // per-microbatch fwd+bwd (steady-state contribution)
	mem  float64 // param+opt+extra (activation added per inflight)
	act  float64 // activation per in-flight microbatch
	ok   bool
}

type choiceKey struct {
	from, to, devices, tp, dp, mbs int
	rc                             bool
}

// run performs the linear-partition DP at op granularity for a fixed
// per-stage device split, minimizing the bottleneck per-microbatch
// stage time subject to per-position memory feasibility.
func run(pm *perfmodel.Model, g *model.Graph, devs []int, mbs, slack int, explored *int) *config.Config {
	n := len(g.Ops)
	s := len(devs)
	even := (n + s - 1) / s
	minOps := even / slack
	if minOps < 1 {
		minOps = 1
	}
	maxOps := even * slack

	memo := make(map[choiceKey]choice)
	eval := func(from, to, devices, tp, dp int, rc bool) choice {
		key := choiceKey{from, to, devices, tp, dp, mbs, rc}
		if c, ok := memo[key]; ok {
			return c
		}
		sm, err := pm.EvalStage(from, to, devices, tp, dp, rc, mbs, 0, 1, 0)
		c := choice{}
		if err == nil {
			c = choice{
				cost: sm.FwdTime + sm.BwdTime,
				mem:  sm.ParamMem + sm.OptMem + sm.ExtraMem,
				act:  sm.ActPerMB,
				ok:   true,
			}
		}
		memo[key] = c
		return c
	}

	cuts, sets, _ := config.MinMaxPartition(n, s, minOps, maxOps, func(from, to, j int, offer func(float64, config.OpSetting)) {
		inflight := s - j // Eq. 1 position term for stage j
		d := devs[j]
		for tp := 1; tp <= d; tp *= 2 {
			dp := d / tp
			if tp*dp != d || mbs%dp != 0 {
				continue
			}
			for _, rc := range []bool{false, true} {
				*explored++
				c := eval(from, to, d, tp, dp, rc)
				if !c.ok {
					continue
				}
				if c.mem+c.act*float64(inflight) > pm.Cluster.MemoryBytes {
					continue
				}
				offer(c.cost, config.OpSetting{TP: tp, DP: dp, Recompute: rc})
			}
		}
	})
	if cuts == nil {
		return nil
	}
	cfg := &config.Config{MicroBatch: mbs, Stages: make([]config.Stage, s)}
	for j, set := range sets {
		cfg.Stages[j] = config.UniformStage(cuts[j], cuts[j+1], devs[j], set)
	}
	if err := cfg.Validate(g, cfg.TotalDevices()); err != nil {
		return nil
	}
	return cfg
}
