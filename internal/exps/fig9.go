package exps

import (
	"fmt"

	"aceso/internal/baselines/alpa"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// Fig9Row is one layer-count point of the Exp#3 scalability study on
// 8 GPUs: search cost and achieved throughput for Aceso and the
// Alpa-like baseline.
type Fig9Row struct {
	Layers      int
	AcesoSearch float64 // seconds
	AcesoIter   float64 // simulated iteration time (s)
	AlpaSearch  float64 // seconds; 0 when failed
	AlpaIter    float64
	AlpaFailed  bool
}

// Fig9Rows are Figure 9's layer counts.
type Fig9Rows []Fig9Row

// Fig9 searches DeepNet-style transformers of increasing depth over 8
// GPUs (Exp#3). Aceso must always return within budget; the Alpa-like
// baseline's layer-group DP grows with depth and fails compilation
// beyond 64 layers.
func Fig9(set Settings, layerCounts []int) (Fig9Rows, error) {
	set = set.withDefaults()
	if len(layerCounts) == 0 {
		layerCounts = []int{8, 16, 32, 64, 128, 256, 512, 1024}
	}
	cl := hardware.DGX1V100(1)
	var out Fig9Rows
	for _, layers := range layerCounts {
		g, err := model.DeepTransformer(layers)
		if err != nil {
			return nil, err
		}
		row := Fig9Row{Layers: layers}

		run, err := runAceso(g, cl, set)
		if err != nil {
			return nil, fmt.Errorf("exps: fig9 %d layers: %w", layers, err)
		}
		row.AcesoSearch = run.SearchTime.Seconds()
		if run.Simulated != nil {
			row.AcesoIter = run.Simulated.IterTime
		}

		al, err := alpa.Search(g, cl, alpa.Options{
			Seed: set.Seed,
			// Deep models need group counts tracking depth — the very
			// scaling that sinks the baseline.
			LayerGroupsGrid: []int{layers},
			MaxMicroBatch:   8,
		})
		if err != nil { // alpa.ErrTooDeep beyond 64 layers
			row.AlpaFailed = true
		} else {
			row.AlpaSearch = al.EmulatedSearchCost.Seconds()
			row.AlpaIter = simIter(g, cl, al.Best, set.Seed)
		}
		out = append(out, row)
	}
	return out, nil
}

// Tables is the scalability table; x marks a failed Alpa-like run.
func (rows Fig9Rows) Tables() []Table {
	t := Table{
		Title: "Figure 9 (Exp#3): scaling to 1K-layer transformers on 8 GPUs (x = failed)",
		Cols: []Col{{Head: "layers"}, {Head: "Alpa search (s)", Fmt: "%.1f"}, {Head: "Aceso search (s)", Fmt: "%.1f"},
			{Head: "Alpa iter (s)"}, {Head: "Aceso iter (s)"}, {Head: "Aceso speedup", Fmt: "%.2fx"}},
	}
	for _, r := range rows {
		var alpaSearch, alpaIter, speedup any = "x", "x", "-"
		if !r.AlpaFailed {
			alpaSearch = r.AlpaSearch
			if r.AlpaIter > 0 {
				alpaIter = r.AlpaIter
				if r.AcesoIter > 0 {
					speedup = r.AlpaIter / r.AcesoIter
				}
			}
		}
		t.Rows = append(t.Rows, []any{r.Layers, alpaSearch, r.AcesoSearch, alpaIter, r.AcesoIter, speedup})
	}
	return []Table{t}
}
