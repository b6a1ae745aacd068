package exps

import (
	"fmt"
	"io"

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

// Fig10 runs the Exp#4 comparison on GPT-3 2.6B (8 GPUs) and 6.7B
// (16 GPUs).
func Fig10(set Settings) ([]Fig10Row, error) {
	set = set.withDefaults()
	cases := []struct {
		size string
		gpus int
	}{
		{"2.6B", 8},
		{"6.7B", 16},
	}
	var out []Fig10Row
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

// RenderFig10 prints the exploration-efficiency comparison.
func RenderFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Figure 10 (Exp#4): configurations explored and found-config performance, DP vs Aceso")
	t := &table{Header: []string{
		"model", "GPUs", "DP explored", "Aceso explored", "ratio",
		"DP iter (s)", "Aceso iter (s)"}}
	for _, r := range rows {
		ratio := "-"
		if r.DPExplored > 0 {
			ratio = fmt.Sprintf("%.1f%%", 100*float64(r.AcesoExplored)/float64(r.DPExplored))
		}
		t.Add(r.Model, r.GPUs, r.DPExplored, r.AcesoExplored, ratio,
			fmt.Sprintf("%.2f", r.DPIter), fmt.Sprintf("%.2f", r.AcesoIter))
	}
	t.Render(w)
}
