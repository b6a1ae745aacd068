package exps

import (
	"fmt"

	"aceso/internal/baselines/dpsearch"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// Fig10Row compares exploration cost and found-configuration quality
// between the pruned dynamic program and Aceso (Exp#4).
type Fig10Row struct {
	Model         string
	GPUs          int
	DPExplored    int
	AcesoExplored int
	// Simulated ("runtime") iteration times of the found configs.
	DPIter    float64
	AcesoIter float64
}

// Fig10Rows are Figure 10's workloads.
type Fig10Rows []Fig10Row

// Fig10 runs the Exp#4 comparison on GPT-3 2.6B (8 GPUs) and 6.7B
// (16 GPUs).
func Fig10(set Settings) (Fig10Rows, error) {
	set = set.withDefaults()
	cases := []struct {
		size string
		gpus int
	}{
		{"2.6B", 8},
		{"6.7B", 16},
	}
	var out Fig10Rows
	for _, tc := range cases {
		g, err := model.ByName("gpt3", tc.size)
		if err != nil {
			return nil, err
		}
		cl := hardware.DGX1V100(4).Restrict(tc.gpus)
		row := Fig10Row{Model: "GPT-3 " + tc.size, GPUs: tc.gpus}

		dp, err := dpsearch.Search(g, cl, dpsearch.Options{Seed: set.Seed})
		if err != nil {
			return nil, fmt.Errorf("exps: fig10 dp %s: %w", tc.size, err)
		}
		row.DPExplored = dp.Explored
		row.DPIter = simIter(g, cl, dp.Best, set.Seed)

		run, err := runAceso(g, cl, set)
		if err != nil {
			return nil, fmt.Errorf("exps: fig10 aceso %s: %w", tc.size, err)
		}
		row.AcesoExplored = run.Explored
		if run.Simulated != nil {
			row.AcesoIter = run.Simulated.IterTime
		}
		out = append(out, row)
	}
	return out, nil
}

// Tables is the exploration-efficiency table.
func (rows Fig10Rows) Tables() []Table {
	t := Table{
		Title: "Figure 10 (Exp#4): configurations explored and found-config performance, DP vs Aceso",
		Cols: []Col{{Head: "model"}, {Head: "GPUs"}, {Head: "DP explored"}, {Head: "Aceso explored"},
			{Head: "ratio", Fmt: "%.1f%%"}, {Head: "DP iter (s)"}, {Head: "Aceso iter (s)"}},
	}
	for _, r := range rows {
		var ratio any = "-"
		if r.DPExplored > 0 {
			ratio = 100 * float64(r.AcesoExplored) / float64(r.DPExplored)
		}
		t.Rows = append(t.Rows, []any{r.Model, r.GPUs, r.DPExplored, r.AcesoExplored, ratio, r.DPIter, r.AcesoIter})
	}
	return []Table{t}
}
