package exps

import (
	"fmt"
	"sort"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
)

// Fig11Result aggregates Heuristic-1/2 efficiency statistics across
// searches (Exp#5, Figure 11): how many bottlenecks were attempted and
// how many hops were needed per improving iteration.
type Fig11Result struct {
	Tries []int // Tries[k] = iterations that needed k+1 bottleneck attempts
	Hops  []int // Hops[k]  = iterations whose improvement used k+1 hops
}

// FirstTryRate returns the fraction of improving iterations that
// found the right bottleneck on the first attempt (≈90% in the paper).
func (f *Fig11Result) FirstTryRate() float64 { return share(f.Tries, 0, 1) }

// MultiHopRate returns the fraction of improving iterations that
// needed more than one hop (≈68% in the paper).
func (f *Fig11Result) MultiHopRate() float64 { return share(f.Hops, 1, len(f.Hops)) }

// share is the fraction of the counts' total in buckets [lo, hi), 0
// when there are none.
func share(counts []int, lo, hi int) float64 {
	total, in := 0, 0
	for k, v := range counts {
		total += v
		if lo <= k && k < hi {
			in += v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// Fig11 runs searches over a sample of the Exp#1 workloads with one
// tracer attached to all of them, which aggregates the heuristic
// statistics.
func Fig11(set Settings) (*Fig11Result, error) {
	set = set.withDefaults()
	trace := obs.NewConvergence()
	for _, tc := range []curveCase{
		{family: "gpt3", size: "1.3B", gpus: 4},
		{family: "gpt3", size: "2.6B", gpus: 8},
		{family: "wresnet", size: "2B", gpus: 4},
		{family: "t5", size: "770M", gpus: 4},
	} {
		g, err := model.ByName(tc.family, tc.size)
		if err != nil {
			return nil, err
		}
		_, err = runAceso(g, hardware.DGX1V100(4).Restrict(tc.gpus), set, func(o *core.Options) { o.Tracer = trace })
		if err != nil {
			return nil, err
		}
	}
	out := &Fig11Result{}
	out.Tries, out.Hops = trace.Histograms()
	return out, nil
}

// Tables is Figure 11's two distributions, each a bar chart.
func (f *Fig11Result) Tables() []Table {
	out := []Table{
		{Title: fmt.Sprintf("Figure 11 (Exp#5): heuristic efficiency — first-try bottleneck rate %.0f%%, multi-hop rate %.0f%%",
			100*f.FirstTryRate(), 100*f.MultiHopRate())},
		{Key: "bottleneck_tries", Title: "(a) bottlenecks tried before improvement"},
		{Key: "hops", Title: "(b) hops per improving reconfiguration"},
	}
	for i, counts := range [][]int{f.Tries, f.Hops} {
		t := &out[1+i]
		t.Cols, t.View = []Col{{Head: t.Key}, {Head: "iterations"}}, Bars
		for k, v := range counts {
			t.Rows = append(t.Rows, []any{k + 1, v})
		}
	}
	return out
}

// Curve is a convergence curve: the best estimated iteration time
// sampled on a uniform wall-time grid.
type Curve struct {
	Label string
	Best  []float64 // len == samples; 0 marks "no feasible config yet"
}

// sampleCurve resamples trace convergence points onto `samples`
// uniform steps across the budget, carrying the best score forward.
func sampleCurve(points []obs.ConvergencePoint, budget time.Duration, samples int) []float64 {
	out := make([]float64, samples)
	best := 0.0
	pi := 0
	for i := 0; i < samples; i++ {
		cutoff := budget * time.Duration(i+1) / time.Duration(samples)
		for pi < len(points) && points[pi].Elapsed <= cutoff {
			best = points[pi].IterTime
			pi++
		}
		out[i] = best
	}
	return out
}

const curveSamples = 8

// curveCase is one panel of a convergence figure: a workload, and the
// pipeline depths searched when a figure pins them.
type curveCase struct {
	key, family, size string
	gpus              int
	stages            []int
}

// curveVariant is one labeled curve of a panel: the search with mut
// applied.
type curveVariant struct {
	label string
	mut   func(*core.Options)
}

// Curves is a convergence figure: its title and, per panel, one curve
// per variant.
type Curves struct {
	Title  string
	Groups map[string][]Curve
}

// curveFigure runs every variant on every case, each search with the
// convergence tracer attached and its curve sampled.
func curveFigure(set Settings, title string, cases []curveCase, variants func(curveCase) []curveVariant) (*Curves, error) {
	set = set.withDefaults()
	out := &Curves{Title: title, Groups: map[string][]Curve{}}
	for _, tc := range cases {
		g, err := model.ByName(tc.family, tc.size)
		if err != nil {
			return nil, err
		}
		cl := hardware.DGX1V100(4).Restrict(tc.gpus)
		for _, v := range variants(tc) {
			trace := obs.NewConvergence()
			if _, err := runAceso(g, cl, set, v.mut, func(o *core.Options) { o.Tracer = trace }); err != nil {
				return nil, err
			}
			curve := Curve{Label: v.label, Best: sampleCurve(trace.Curve(), set.Budget, curveSamples)}
			out.Groups[tc.key] = append(out.Groups[tc.key], curve)
		}
	}
	return out, nil
}

// Fig12 compares convergence with and without Heuristic-2 (3 random-
// order runs), Exp#5 / Figure 12, on GPT-3 and Wide-ResNet.
func Fig12(set Settings) (*Curves, error) {
	return curveFigure(set, "Figure 12 (Exp#5): convergence with vs without Heuristic-2", []curveCase{
		{key: "GPT-3 1.3B, 4 GPUs", family: "gpt3", size: "1.3B", gpus: 4},
		{key: "Wide-ResNet 2B, 4 GPUs", family: "wresnet", size: "2B", gpus: 4},
	}, func(curveCase) []curveVariant {
		vs := []curveVariant{{label: "heuristic-2"}}
		for r := 1; r <= 3; r++ {
			vs = append(vs, curveVariant{fmt.Sprintf("random-%d", r), func(o *core.Options) {
				o.DisableHeuristic2 = true
				o.Seed = set.Seed + int64(r)*101
			}})
		}
		return vs
	})
}

// Fig13 sweeps MaxHops ∈ {1, 3, 7, 11} (Exp#6 / Figure 13).
func Fig13(set Settings) (*Curves, error) {
	return curveFigure(set, "Figure 13 (Exp#6): convergence under different MaxHops", []curveCase{
		{"GPT-3 2.6B (6 stages)", "gpt3", "2.6B", 8, []int{6}},
		{"GPT-3 2.6B (8 stages)", "gpt3", "2.6B", 8, []int{8}},
		{"Wide-ResNet 4B (8 stages)", "wresnet", "4B", 8, []int{8}},
		{"Wide-ResNet 4B (4 stages)", "wresnet", "4B", 8, []int{4}},
	}, func(tc curveCase) []curveVariant {
		var vs []curveVariant
		for _, hops := range []int{1, 3, 7, 11} {
			vs = append(vs, curveVariant{fmt.Sprintf("MaxHops=%d", hops), func(o *core.Options) {
				o.MaxHops = hops
				o.StageCounts = tc.stages
			}})
		}
		return vs
	})
}

// Fig14 compares initial configurations (Exp#7 / Figure 14).
func Fig14(set Settings) (*Curves, error) {
	return curveFigure(set, "Figure 14 (Exp#7): robustness to the initial configuration", []curveCase{
		{key: "GPT-3 2.6B, 8 GPUs", family: "gpt3", size: "2.6B", gpus: 8},
		{key: "Wide-ResNet 4B, 8 GPUs", family: "wresnet", size: "4B", gpus: 8},
	}, func(curveCase) []curveVariant {
		return []curveVariant{
			{"balanced", func(o *core.Options) { o.Initializer = config.Balanced }},
			{"imbalance-op", func(o *core.Options) { o.Initializer = config.ImbalancedOps }},
			{"imbalance-GPU", func(o *core.Options) { o.Initializer = config.ImbalancedGPUs }},
		}
	})
}

// Tables is one time-gridded table per panel, panels in key order.
func (c *Curves) Tables() []Table {
	out := []Table{{Title: c.Title}}
	keys := make([]string, 0, len(c.Groups))
	for key := range c.Groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		curves := c.Groups[key]
		t := Table{Key: key, Title: "\n[" + key + "]  best estimated iteration time (s) over search time (- = nothing feasible yet)",
			Cols: []Col{{Head: "variant"}}}
		if len(curves) > 0 {
			for i := range curves[0].Best {
				t.Cols = append(t.Cols, Col{Head: fmt.Sprintf("%g%%", 100*(float64(i+1)/float64(len(curves[0].Best))))})
			}
		}
		for _, cv := range curves {
			row := []any{cv.Label}
			for _, v := range cv.Best {
				if v == 0 {
					row = append(row, "-")
				} else {
					row = append(row, v)
				}
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}
