package config

import (
	"fmt"
	"math"

	"aceso/internal/model"
)

// DeviceSplit partitions total devices across stages so every stage
// receives a power of two and the counts sum exactly to total. The
// split is as even as possible; when total/stages is not a power of
// two, later stages receive the larger shares (matching the paper's
// found configurations such as 4,4,8 GPUs for 3 stages on 16).
func DeviceSplit(total, stages int) ([]int, error) {
	if stages <= 0 || total < stages {
		return nil, fmt.Errorf("config: cannot split %d devices into %d stages", total, stages)
	}
	base := 1
	for base*2 <= total/stages {
		base *= 2
	}
	out := make([]int, stages)
	sum := 0
	for i := range out {
		out[i] = base
		sum += base
	}
	for sum < total {
		// Double the smallest stage whose doubling still fits,
		// preferring the right-most on ties so extra capacity lands on
		// later (activation-lighter) stages.
		pick := -1
		for i := stages - 1; i >= 0; i-- {
			if sum+out[i] <= total && (pick < 0 || out[i] < out[pick]) {
				pick = i
			}
		}
		if pick >= 0 {
			sum += out[pick]
			out[pick] *= 2
		} else {
			return nil, fmt.Errorf("config: no power-of-two split of %d devices into %d stages", total, stages)
		}
	}
	return out, nil
}

// OpSplit partitions the model's operators into len(weights)
// contiguous ranges whose forward FLOPs are proportional to the
// weights: stage s targets weights[s]/Σweights of the total. Every
// range is non-empty; a non-positive weight is treated as a minimal
// share.
func OpSplit(g *model.Graph, weights []float64) ([][2]int, error) {
	n, stages := len(g.Ops), len(weights)
	if stages <= 0 || n < stages {
		return nil, fmt.Errorf("config: cannot split %d ops into %d stages", n, stages)
	}
	share := func(s int) float64 {
		if weights[s] <= 0 {
			return 1e-9
		}
		return weights[s]
	}
	prefix := make([]float64, n+1)
	for i := range g.Ops {
		prefix[i+1] = prefix[i] + g.Ops[i].FwdFLOPs
	}
	// rest[s] = Σ_{k ≥ s} share(k): stage s targets its share of the
	// FLOPs *remaining* at its start, so the split rebalances as it
	// goes. With uniform weights that share is exactly 1/(stages-s).
	rest := make([]float64, stages+1)
	for s := stages - 1; s >= 0; s-- {
		rest[s] = rest[s+1] + share(s)
	}
	out := make([][2]int, 0, stages)
	start := 0
	for s := 0; s < stages; s++ {
		if s == stages-1 {
			out = append(out, [2]int{start, n})
			break
		}
		target := prefix[start] + (prefix[n]-prefix[start])*share(s)/rest[s]
		end := start + 1
		// Advance while adding the next op keeps us closer to target,
		// but leave at least one op per remaining stage.
		maxEnd := n - (stages - s - 1)
		for end < maxEnd {
			if prefix[end]-target < target-prefix[end] { // end is left of target
				end++
				continue
			}
			// Crossing the target: keep whichever boundary is closer.
			if prefix[end]-target > target-prefix[end-1] && end-1 > start {
				end--
			}
			break
		}
		if end > maxEnd {
			end = maxEnd
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out, nil
}

// MinMaxPartition is the linear-partition DP of the comparators
// (PipeDream's layer-to-stage DP): it cuts n units into stages
// contiguous ranges of minLen…maxLen units, minimising the largest
// stage cost. For every range stage s can take after a feasible
// prefix, eval(from, to, s, offer) offers that stage's settings with
// their costs; only a strictly lower value replaces a cell, so the
// first offer wins ties. It returns the stage boundaries (stage s runs
// units [cuts[s], cuts[s+1])), each stage's setting and the largest
// stage cost, or nil cuts when no partition is feasible.
func MinMaxPartition(n, stages, minLen, maxLen int, eval func(from, to, stage int, offer func(cost float64, set OpSetting))) (cuts []int, sets []OpSetting, cost float64) {
	type cell struct {
		cost float64
		cut  int
		set  OpSetting
	}
	inf, w := math.Inf(1), stages+1
	f := make([]cell, (n+1)*w) // f[i*w+j]: units [0, i) in stages [0, j)
	for c := range f {
		f[c].cost = inf
	}
	f[0].cost = 0
	// One offer for the whole DP: it fills the cell at, reached from the
	// cut k whose prefix costs prev, without a closure per range.
	var prev float64
	var k int
	var at *cell
	offer := func(c float64, set OpSetting) {
		v := prev
		if c > v {
			v = c
		}
		if v < at.cost {
			*at = cell{v, k, set}
		}
	}
	for j := 1; j <= stages; j++ {
		lo := j
		if j == stages {
			lo = n // only f[n][stages] is read back
		}
		for i := lo; i <= n-(stages-j); i++ {
			at = &f[i*w+j]
			for k = max(i-maxLen, j-1); k <= i-minLen; k++ {
				if prev = f[k*w+j-1].cost; prev < inf {
					eval(k, i, j-1, offer)
				}
			}
		}
	}
	if cost = f[n*w+stages].cost; cost == inf {
		return nil, nil, 0
	}
	cuts, sets = make([]int, stages+1), make([]OpSetting, stages)
	cuts[stages] = n
	for j := stages; j > 0; j-- {
		c := f[cuts[j]*w+j]
		cuts[j-1], sets[j-1] = c.cut, c.set
	}
	return cuts, sets, cost
}

// UniformStage returns the stage that runs operators [start, end) on
// the given number of devices, every operator with setting set.
func UniformStage(start, end, devices int, set OpSetting) Stage {
	st := Stage{Start: start, End: end, Devices: devices, Ops: make([]OpSetting, end-start)}
	for j := range st.Ops {
		st.Ops[j] = set
	}
	return st
}

// Weighted builds a pipeline's starting configuration — the one
// constructor every fresh start goes through. Stage s runs on devs[s]
// devices (a DeviceSplit), takes the contiguous operator range holding
// weights[s]/Σweights of the forward FLOPs (OpSplit) and starts with
// full tensor parallelism inside the stage, the memory-safest start,
// unless replicate[s] asks for a dp-replicated one (TP devs[s]/2 ×
// DP 2), granted only when devs[s] and microBatch are both even.
// Default sharding dims, no recomputation. nil weights are uniform —
// per *stage*, which is Balanced; StageWeights' sums of uniform
// per-device scales are not — and nil replicate is all false.
func Weighted(g *model.Graph, devs []int, microBatch int, weights []float64, replicate []bool) (*Config, error) {
	if weights == nil {
		weights = make([]float64, len(devs))
		for s := range weights {
			weights[s] = 1
		}
	}
	ranges, err := OpSplit(g, weights)
	if err != nil {
		return nil, err
	}
	c := &Config{MicroBatch: microBatch, Stages: make([]Stage, len(devs))}
	for s, n := range devs {
		tp, dp := n, 1
		if replicate != nil && replicate[s] && n%2 == 0 && microBatch%2 == 0 {
			tp, dp = n/2, 2
		}
		c.Stages[s] = UniformStage(ranges[s][0], ranges[s][1], n, OpSetting{TP: tp, DP: dp})
	}
	if err := c.Validate(g, c.TotalDevices()); err != nil {
		return nil, err
	}
	return c, nil
}

// Balanced builds the paper's default initial configuration: an (as
// even as possible) power-of-two device split and Weighted's start
// with uniform per-stage weights — FLOPs-balanced operator ranges,
// full tensor parallelism — at the given (minimum) microbatch size.
func Balanced(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	devs, err := DeviceSplit(totalDevices, stages)
	if err != nil {
		return nil, err
	}
	return Weighted(g, devs, microBatch, nil, nil)
}

// ImbalancedOps builds the "imbalance-op" initial configuration of
// Exp#7: the first stage takes half of all operators and the rest are
// spread evenly.
func ImbalancedOps(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	c, err := Balanced(g, totalDevices, stages, microBatch)
	if err != nil {
		return nil, err
	}
	if stages == 1 {
		return c, nil
	}
	n := len(g.Ops)
	bounds := make([]int, stages+1)
	bounds[0] = 0
	bounds[1] = n / 2
	rest := n - n/2
	for s := 1; s < stages; s++ {
		bounds[s+1] = bounds[s] + rest/(stages-1)
	}
	bounds[stages] = n
	// Guarantee non-empty stages.
	for s := 1; s <= stages; s++ {
		if bounds[s] <= bounds[s-1] {
			bounds[s] = bounds[s-1] + 1
		}
	}
	if bounds[stages] > n {
		return nil, fmt.Errorf("config: model too small for %d imbalanced stages", stages)
	}
	bounds[stages] = n
	for s := range c.Stages {
		n := c.Stages[s].Devices
		c.Stages[s] = UniformStage(bounds[s], bounds[s+1], n, OpSetting{TP: n, DP: 1})
	}
	return c, c.Validate(g, totalDevices)
}

// ImbalancedGPUs builds the "imbalance-GPU" initial configuration of
// Exp#7: Balanced's operator ranges on a device split whose first stage
// hoards devices (half of the total when that is a power of two), the
// remainder split across the rest.
func ImbalancedGPUs(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	if stages == 1 {
		return Balanced(g, totalDevices, stages, microBatch)
	}
	first := totalDevices / 2
	for !IsPow2(first) && first > 1 {
		first--
	}
	restSplit, err := DeviceSplit(totalDevices-first, stages-1)
	if err != nil {
		return nil, err
	}
	return Weighted(g, append([]int{first}, restSplit...), microBatch, nil, nil)
}
