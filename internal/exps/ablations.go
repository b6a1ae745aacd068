package exps

import (
	"fmt"
	"io"

	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
)

// AblationRow is one search-design variant's outcome on the reference
// workload (GPT-3 1.3B on 4 GPUs).
type AblationRow struct {
	Variant  string
	BestIter float64 // best estimated iteration time (s)
	Explored int
}

// AblationResult is the ablation table plus the 1F1B-vs-GPipe peak
// memory ratio that justifies Eq. 1's scheduling premise (0 = not
// measured).
type AblationResult struct {
	Rows          []AblationRow
	GPipeMemRatio float64
}

// Ablations quantifies this implementation's own design choices —
// beyond the paper's ablations — by re-running the reference search
// with each knob flipped: branch factor of the multi-hop recursion,
// the fine-tuning pass, Heuristic-2, and the extended (ZeRO) primitive
// space.
func Ablations(set Settings) (*AblationResult, error) {
	set = set.withDefaults()
	g, err := model.ByName("gpt3", "1.3B")
	if err != nil {
		return nil, err
	}
	cl := hardware.DGX1V100(1).Restrict(4)

	variants := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"baseline (BranchFactor=3, fine-tune, H2)", nil},
		{"BranchFactor=1", func(o *core.Options) { o.BranchFactor = 1 }},
		{"BranchFactor=6", func(o *core.Options) { o.BranchFactor = 6 }},
		{"no fine-tuning", func(o *core.Options) { o.DisableFineTune = true }},
		{"no Heuristic-2 (random order)", func(o *core.Options) { o.DisableHeuristic2 = true }},
		{"extended primitives (ZeRO)", func(o *core.Options) { o.ExtendedPrimitives = true }},
	}
	out := &AblationResult{}
	for _, v := range variants {
		run, err := runAceso(g, cl, set, v.mut)
		if err != nil {
			return nil, fmt.Errorf("exps: ablation %q: %w", v.name, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Variant:  v.name,
			BestIter: run.Predicted.IterTime,
			Explored: run.Explored,
		})
	}

	// Scheduling ablation: GPipe vs 1F1B peak memory on a 4-stage
	// pipeline (the Eq. 1 premise).
	pmRun, err := runAceso(g, cl, set, func(o *core.Options) { o.StageCounts = []int{4} })
	if err != nil {
		return nil, err
	}
	if pmRun.Best != nil {
		pm := perfmodel.New(g, cl, set.Seed)
		if one, err := pipesim.Simulate(pm, pmRun.Best, set.Seed); err == nil {
			if gp, err := pipesim.SimulateEffects(pm, pmRun.Best, set.Seed, pipesim.GPipe, pipesim.DefaultEffects()); err == nil && one.PeakMem > 0 {
				out.GPipeMemRatio = gp.PeakMem / one.PeakMem
			}
		}
	}
	return out, nil
}

// RenderAblations prints the design-choice table.
func RenderAblations(w io.Writer, r *AblationResult) {
	fmt.Fprintln(w, "Search-design ablations (GPT-3 1.3B, 4 GPUs; lower iteration time is better)")
	t := &table{Header: []string{"variant", "best iter (s)", "configs explored"}}
	for _, row := range r.Rows {
		t.Add(row.Variant, fmt.Sprintf("%.3f", row.BestIter), row.Explored)
	}
	t.Render(w)
	if r.GPipeMemRatio > 0 {
		fmt.Fprintf(w, "\nscheduling: GPipe peak memory is %.2f× 1F1B's on the 4-stage plan (why Eq.1 assumes 1F1B)\n", r.GPipeMemRatio)
	}
}
