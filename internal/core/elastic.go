package core

import (
	"fmt"

	"aceso/internal/config"
	"aceso/internal/model"
)

// ProjectConfig adapts a configuration found for one cluster onto a
// cluster with a different device count, preserving as much of its
// structure as possible: the pipeline's operator ranges, recomputation
// flags, microbatch size and each stage's tp:dp ratio survive; device
// counts are re-split and per-op parallelism re-factorized to fit.
//
// This is the warm start for elastic reconfiguration — the paper's
// motivating scenario of "a shared cluster with frequent changes in
// resources" (§1): after losing or gaining nodes, re-searching from
// the projected previous plan converges faster than from scratch.
func ProjectConfig(g *model.Graph, old *config.Config, newDevices int) (*config.Config, error) {
	if newDevices < 1 {
		return nil, fmt.Errorf("core: project onto %d devices", newDevices)
	}
	stages := min(old.NumStages(), newDevices)
	// Merge stages if the new cluster cannot host the old depth: fold
	// the shallowest adjacent pair until it fits.
	ranges := make([][2]int, 0, old.NumStages())
	recomp := make([][]bool, 0, old.NumStages())
	tpFrac := make([]float64, 0, old.NumStages()) // tp share of the stage's devices
	for i := range old.Stages {
		st := &old.Stages[i]
		ranges = append(ranges, [2]int{st.Start, st.End})
		rc := make([]bool, st.NumOps())
		tp := 0
		for j := range st.Ops {
			rc[j] = st.Ops[j].Recompute
			tp += st.Ops[j].TP
		}
		recomp = append(recomp, rc)
		tpFrac = append(tpFrac, float64(tp)/float64(len(st.Ops))/float64(st.Devices))
	}
	for len(ranges) > stages {
		// Merge the pair with the fewest combined ops.
		best := 0
		bestOps := 1 << 30
		for i := 0; i+1 < len(ranges); i++ {
			n := ranges[i+1][1] - ranges[i][0]
			if n < bestOps {
				best, bestOps = i, n
			}
		}
		ranges[best][1] = ranges[best+1][1]
		recomp[best] = append(recomp[best], recomp[best+1]...)
		tpFrac[best] = (tpFrac[best] + tpFrac[best+1]) / 2
		ranges = append(ranges[:best+1], ranges[best+2:]...)
		recomp = append(recomp[:best+1], recomp[best+2:]...)
		tpFrac = append(tpFrac[:best+1], tpFrac[best+2:]...)
	}

	devs, err := config.DeviceSplit(newDevices, len(ranges))
	if err != nil {
		return nil, err
	}
	mbs := old.MicroBatch
	out := &config.Config{MicroBatch: mbs, Stages: make([]config.Stage, len(ranges))}
	for i, r := range ranges {
		st := config.Stage{Start: r[0], End: r[1], Devices: devs[i]}
		// Re-factorize tp×dp = devices keeping the old tp share.
		tp := 1
		for tp*2 <= devs[i] && float64(tp*2)/float64(devs[i]) <= tpFrac[i]+1e-9 {
			tp *= 2
		}
		dp := devs[i] / tp
		// dp must divide the microbatch; shift factors toward tp.
		for dp > 1 && mbs%dp != 0 {
			dp /= 2
			tp *= 2
		}
		st.Ops = make([]config.OpSetting, st.NumOps())
		for j := range st.Ops {
			st.Ops[j] = config.OpSetting{TP: tp, DP: dp, Recompute: recomp[i][j]}
		}
		out.Stages[i] = st
	}
	if err := out.Validate(g, newDevices); err != nil {
		return nil, fmt.Errorf("core: projection invalid: %w", err)
	}
	return out, nil
}

// WarmStart wraps a previous best configuration as an Initializer: the
// worker whose stage count matches the projection starts from it, and
// every other depth falls back to the balanced default.
func WarmStart(prev *config.Config) Initializer {
	return func(g *model.Graph, devices, stages, mbs int) (*config.Config, error) {
		proj, err := ProjectConfig(g, prev, devices)
		if err == nil && proj.NumStages() == stages {
			return proj, nil
		}
		return config.Balanced(g, devices, stages, mbs)
	}
}
