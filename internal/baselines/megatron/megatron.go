// Package megatron reproduces the paper's Megatron-LM baseline: a grid
// search over the five global configuration options (tp, dp, pp, b,
// recomp) evaluated with Aceso's performance model, exactly as §5
// describes ("to maximize its performance as a strong baseline, we
// performed a grid search over all these options using Aceso's
// performance model").
//
// Megatron-LM sets every option globally — all layers share the same
// tensor/data-parallel degrees, stages are (layer-)even partitions,
// and recomputation is all-or-nothing — which is precisely the
// configuration-space restriction the case studies in §5.4 exploit.
package megatron

import (
	"fmt"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// Result is the outcome of the grid search.
type Result struct {
	Best      *config.Config
	Estimate  *perfmodel.Estimate
	Evaluated int // grid points evaluated
	Elapsed   time.Duration
}

// Options bounds the grid.
type Options struct {
	// MaxMicroBatch caps the microbatch axis (default 64).
	MaxMicroBatch int
	// Model optionally reuses a shared performance model.
	Model *perfmodel.Model
	// Seed feeds the profiler when Model is nil.
	Seed int64
}

// Search grid-searches (pp, tp, dp, b, recomp) for graph g over
// cluster cl and returns the best feasible configuration.
func Search(g *model.Graph, cl hardware.Cluster, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxMicroBatch <= 0 {
		opts.MaxMicroBatch = 64
	}
	pm := opts.Model
	if pm == nil {
		pm = perfmodel.New(g, cl, opts.Seed)
	}
	start := time.Now()
	devices := cl.TotalDevices()

	res := &Result{}
	var bestTime float64
	for pp := 1; pp <= devices && pp <= len(g.Ops); pp *= 2 {
		perStage := devices / pp
		if perStage*pp != devices {
			continue
		}
		for tp := 1; tp <= perStage; tp *= 2 {
			dp := perStage / tp
			if tp*dp != perStage {
				continue
			}
			for mbs := dp; mbs <= g.GlobalBatch && mbs <= opts.MaxMicroBatch; mbs *= 2 {
				if g.GlobalBatch%mbs != 0 || mbs%dp != 0 {
					continue
				}
				for _, recomp := range []bool{false, true} {
					cfg, err := build(g, devices, pp, tp, dp, mbs, recomp)
					if err != nil {
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
	}
	res.Elapsed = time.Since(start)
	if res.Best == nil {
		return res, fmt.Errorf("megatron: no feasible configuration in the grid")
	}
	return res, nil
}

// build constructs the global Megatron-style configuration: even
// op-count stages, uniform tp×dp everywhere, all-or-nothing
// recomputation.
func build(g *model.Graph, devices, pp, tp, dp, mbs int, recomp bool) (*config.Config, error) {
	n := len(g.Ops)
	if pp > n {
		return nil, fmt.Errorf("megatron: more stages than ops")
	}
	c := &config.Config{MicroBatch: mbs, Stages: make([]config.Stage, pp)}
	perStage := devices / pp
	for s := range c.Stages {
		c.Stages[s] = config.UniformStage(s*n/pp, (s+1)*n/pp, perStage, config.OpSetting{TP: tp, DP: dp, Recompute: recomp})
	}
	if err := c.Validate(g, devices); err != nil {
		return nil, err
	}
	return c, nil
}
