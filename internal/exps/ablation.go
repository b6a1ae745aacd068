package exps

import (
	"fmt"
	"io"
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
func (f *Fig11Result) FirstTryRate() float64 {
	total := 0
	for _, v := range f.Tries {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(f.Tries[0]) / float64(total)
}

// MultiHopRate returns the fraction of improving iterations that
// needed more than one hop (≈68% in the paper).
func (f *Fig11Result) MultiHopRate() float64 {
	total, multi := 0, 0
	for k, v := range f.Hops {
		total += v
		if k > 0 {
			multi += v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(multi) / float64(total)
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

// RenderFig11 prints the two distributions.
func RenderFig11(w io.Writer, r *Fig11Result) {
	fmt.Fprintf(w, "Figure 11 (Exp#5): heuristic efficiency — first-try bottleneck rate %.0f%%, multi-hop rate %.0f%%\n",
		100*r.FirstTryRate(), 100*r.MultiHopRate())
	histogram(w, "(a) bottlenecks tried before improvement", r.Tries)
	histogram(w, "(b) hops per improving reconfiguration", r.Hops)
}

// Curve is a convergence curve: the best estimated iteration time
// sampled on a uniform wall-time grid.
type Curve struct {
	Label  string
	Budget time.Duration
	Best   []float64 // len == samples; 0 marks "no feasible config yet"
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

// convergenceRun executes one search with the convergence tracer
// attached and samples its curve.
func convergenceRun(family, size string, gpus int, set Settings, label string, samples int, mut func(*core.Options)) (Curve, error) {
	g, err := model.ByName(family, size)
	if err != nil {
		return Curve{}, err
	}
	trace := obs.NewConvergence()
	_, err = runAceso(g, hardware.DGX1V100(4).Restrict(gpus), set, mut, func(o *core.Options) { o.Tracer = trace })
	if err != nil {
		return Curve{}, err
	}
	return Curve{
		Label:  label,
		Budget: set.Budget,
		Best:   sampleCurve(trace.Curve(), set.Budget, samples),
	}, nil
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

// curveFigure runs every variant on every case.
func curveFigure(set Settings, cases []curveCase, variants func(curveCase) []curveVariant) (map[string][]Curve, error) {
	set = set.withDefaults()
	out := map[string][]Curve{}
	for _, tc := range cases {
		for _, v := range variants(tc) {
			c, err := convergenceRun(tc.family, tc.size, tc.gpus, set, v.label, curveSamples, v.mut)
			if err != nil {
				return nil, err
			}
			out[tc.key] = append(out[tc.key], c)
		}
	}
	return out, nil
}

// Fig12 compares convergence with and without Heuristic-2 (3 random-
// order runs), Exp#5 / Figure 12, on GPT-3 and Wide-ResNet.
func Fig12(set Settings) (map[string][]Curve, error) {
	return curveFigure(set, []curveCase{
		{key: "GPT-3 1.3B, 4 GPUs", family: "gpt3", size: "1.3B", gpus: 4},
		{key: "Wide-ResNet 2B, 4 GPUs", family: "wresnet", size: "2B", gpus: 4},
	}, func(curveCase) []curveVariant {
		vs := []curveVariant{{label: "heuristic-2"}}
		for r := 1; r <= 3; r++ {
			seed := set.Seed + int64(r)*101
			vs = append(vs, curveVariant{fmt.Sprintf("random-%d", r), func(o *core.Options) {
				o.DisableHeuristic2 = true
				o.Seed = seed
			}})
		}
		return vs
	})
}

// Fig13 sweeps MaxHops ∈ {1, 3, 7, 11} (Exp#6 / Figure 13).
func Fig13(set Settings) (map[string][]Curve, error) {
	return curveFigure(set, []curveCase{
		{"GPT-3 2.6B (6 stages)", "gpt3", "2.6B", 8, []int{6}},
		{"GPT-3 2.6B (8 stages)", "gpt3", "2.6B", 8, []int{8}},
		{"Wide-ResNet 4B (8 stages)", "wresnet", "4B", 8, []int{8}},
		{"Wide-ResNet 4B (4 stages)", "wresnet", "4B", 8, []int{4}},
	}, func(tc curveCase) []curveVariant {
		var vs []curveVariant
		for _, hops := range []int{1, 3, 7, 11} {
			hops := hops
			vs = append(vs, curveVariant{fmt.Sprintf("MaxHops=%d", hops), func(o *core.Options) {
				o.MaxHops = hops
				o.StageCounts = tc.stages
			}})
		}
		return vs
	})
}

// Fig14 compares initial configurations (Exp#7 / Figure 14).
func Fig14(set Settings) (map[string][]Curve, error) {
	return curveFigure(set, []curveCase{
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

// RenderCurves prints convergence curves as a time-gridded table.
func RenderCurves(w io.Writer, title string, groups map[string][]Curve) {
	fmt.Fprintln(w, title)
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		curves := groups[key]
		fmt.Fprintf(w, "\n[%s]  best estimated iteration time (s) over search time (- = nothing feasible yet)\n", key)
		t := &table{Header: []string{"variant"}}
		if len(curves) > 0 {
			for i := range curves[0].Best {
				frac := float64(i+1) / float64(len(curves[0].Best))
				t.Header = append(t.Header, fmt.Sprintf("%.0f%%", 100*frac))
			}
		}
		for _, c := range curves {
			row := []any{c.Label}
			for _, v := range c.Best {
				if v == 0 {
					row = append(row, "-")
				} else {
					row = append(row, fmt.Sprintf("%.2f", v))
				}
			}
			t.Add(row...)
		}
		t.Render(w)
	}
}
