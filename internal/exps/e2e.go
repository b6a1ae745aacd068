package exps

import (
	"fmt"
	"math"

	"aceso/internal/baselines/alpa"
	"aceso/internal/baselines/megatron"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// E2ECell is one (family, size) point of the end-to-end comparison —
// the shared raw material of Figure 7, Figure 8, Tables 3–5 and
// Figures 15–16.
type E2ECell struct {
	Family string
	Size   string
	GPUs   int

	// Simulated iteration times (seconds); 0 marks "not run / failed".
	AcesoIter, MegatronIter, AlpaIter float64
	// Effective TFLOPS per GPU (Tables 3–5).
	AcesoTF, MegatronTF, AlpaTF float64
	// Search costs in seconds (Figure 8); Alpa's includes the emulated
	// compile+profile charge.
	AcesoSearch, AlpaSearch float64

	// Performance-model accuracy on Aceso's chosen config (Fig 15/16).
	PredTime, ActualTime float64
	PredMem, ActualMem   float64 // bytes
}

// E2E bundles every end-to-end cell.
type E2E struct {
	Cells []E2ECell
}

// E2EFamilies is the canonical family order of Figure 7.
var E2EFamilies = []string{"gpt3", "wresnet", "t5"}

// RunE2E executes Exp#1/#2's protocol for the given families: for each
// model size on its device count, search with Aceso (executing the
// top-5 and keeping the fastest), grid-search Megatron-LM, solve the
// Alpa-like baseline (except for T5, which had no official Alpa
// implementation), and simulate every found configuration.
func RunE2E(set Settings, families []string) (*E2E, error) {
	set = set.withDefaults()
	if len(families) == 0 {
		families = E2EFamilies
	}
	out := &E2E{}
	for _, fam := range families {
		sizes, err := model.Sizes(fam)
		if err != nil {
			return nil, err
		}
		for si := 0; si < set.Sizes && si < len(sizes); si++ {
			size := sizes[si]
			gpus := GPUsForSize[si]
			cell, err := runE2ECell(fam, size, gpus, set)
			if err != nil {
				return nil, fmt.Errorf("exps: %s-%s on %d GPUs: %w", fam, size, gpus, err)
			}
			out.Cells = append(out.Cells, *cell)
		}
	}
	return out, nil
}

func runE2ECell(fam, size string, gpus int, set Settings) (*E2ECell, error) {
	g, err := model.ByName(fam, size)
	if err != nil {
		return nil, err
	}
	cl := hardware.DGX1V100(4).Restrict(gpus)
	cell := &E2ECell{Family: fam, Size: size, GPUs: gpus}

	// Aceso.
	run, err := runAceso(g, cl, set)
	if err != nil {
		return nil, err
	}

	if run.Simulated != nil {
		cell.AcesoIter = run.Simulated.IterTime
		cell.AcesoTF = tflops(g, gpus, cell.AcesoIter)
		cell.PredTime = run.Predicted.IterTime
		cell.ActualTime = run.Simulated.IterTime
		cell.PredMem = run.Predicted.PeakMem
		cell.ActualMem = run.Simulated.PeakMem
	}
	cell.AcesoSearch = run.SearchTime.Seconds()

	// §5.1: "For the 1-GPU setting, we ran all the systems under the
	// same configuration" — there is nothing to parallelize, so every
	// system executes identically (Alpa not on T5: the paper had no
	// official T5 support).
	if gpus == 1 {
		cell.MegatronIter, cell.MegatronTF = cell.AcesoIter, cell.AcesoTF
		if fam != "t5" {
			cell.AlpaIter, cell.AlpaTF = cell.AcesoIter, cell.AcesoTF
			if al, err := alpa.Search(g, cl, alpa.Options{Seed: set.Seed}); err == nil {
				cell.AlpaSearch = al.EmulatedSearchCost.Seconds()
			}
		}
		return cell, nil
	}

	// Megatron-LM grid.
	if mg, err := megatron.Search(g, cl, megatron.Options{Seed: set.Seed}); err == nil {
		cell.MegatronIter = simIter(g, cl, mg.Best, set.Seed)
		cell.MegatronTF = tflops(g, gpus, cell.MegatronIter)
	}

	// Alpa-like (not for T5: the paper had no official T5 support).
	if fam != "t5" {
		if al, err := alpa.Search(g, cl, alpa.Options{Seed: set.Seed}); err == nil {
			cell.AlpaIter = simIter(g, cl, al.Best, set.Seed)
			cell.AlpaTF = tflops(g, gpus, cell.AlpaIter)
			cell.AlpaSearch = al.EmulatedSearchCost.Seconds()
		}
	}
	return cell, nil
}

// Raw is every end-to-end cell, the data behind Figure 7, Figure 8,
// Tables 3–5 and Figures 15–16.
func (e *E2E) Raw() []Table {
	t := Table{Cols: []Col{{Head: "family"}, {Head: "size"}, {Head: "gpus"},
		{Head: "aceso_iter_s"}, {Head: "megatron_iter_s"}, {Head: "alpa_iter_s"},
		{Head: "aceso_tflops"}, {Head: "megatron_tflops"}, {Head: "alpa_tflops"},
		{Head: "aceso_search_s"}, {Head: "alpa_search_s"},
		{Head: "pred_time_s"}, {Head: "actual_time_s"}, {Head: "pred_mem_bytes"}, {Head: "actual_mem_bytes"}}}
	for _, c := range e.Cells {
		t.Rows = append(t.Rows, []any{c.Family, c.Size, c.GPUs,
			c.AcesoIter, c.MegatronIter, c.AlpaIter,
			c.AcesoTF, c.MegatronTF, c.AlpaTF,
			c.AcesoSearch, c.AlpaSearch,
			c.PredTime, c.ActualTime, c.PredMem, c.ActualMem})
	}
	return []Table{t}
}

// byFamily is a caption, then one table per family that has cells,
// titled [family], of the rows row makes of its cells; row returns nil
// for a cell it skips.
func (e *E2E) byFamily(caption string, families []string, cols []Col, row func(*E2ECell) []any) []Table {
	out := []Table{{Title: caption}}
	for _, fam := range families {
		cells := e.family(fam)
		if len(cells) == 0 {
			continue
		}
		t := Table{Key: fam, Title: "\n[" + fam + "]", Cols: cols}
		for i := range cells {
			if r := row(&cells[i]); r != nil {
				t.Rows = append(t.Rows, r)
			}
		}
		out = append(out, t)
	}
	return out
}

// fastest is the least positive iteration time, 0 when none ran.
func fastest(iters ...float64) (least float64) {
	for _, t := range iters {
		if t > 0 && (least == 0 || t < least) {
			least = t
		}
	}
	return least
}

// Fig7 is normalized training throughput per family (Exp#1): each
// system's throughput over the fastest system's, which is the fastest
// iteration time over the system's.
func (e *E2E) Fig7() []Table {
	return e.byFamily("Figure 7 (Exp#1): normalized training throughput (higher is better; - = not run, x = failed)",
		E2EFamilies, []Col{{Head: "size"}, {Head: "GPUs"}, {Head: "Megatron-LM"}, {Head: "Alpa"}, {Head: "Aceso"},
			{Head: "Aceso speedup vs best baseline", Fmt: "%.2fx"}},
		func(c *E2ECell) []any {
			best := fastest(c.AcesoIter, c.MegatronIter, c.AlpaIter)
			if best == 0 {
				return nil
			}
			norm := func(iter float64, ran bool) any {
				if !ran {
					return "-"
				}
				if iter == 0 {
					return "x"
				}
				return best / iter
			}
			var speedup any = "-"
			if baseline := fastest(c.MegatronIter, c.AlpaIter); baseline > 0 && c.AcesoIter > 0 {
				speedup = baseline / c.AcesoIter
			}
			return []any{c.Size, c.GPUs, norm(c.MegatronIter, true), norm(c.AlpaIter, c.Family != "t5"), norm(c.AcesoIter, true), speedup}
		})
}

// Fig8 is the search-cost comparison (Exp#2).
func (e *E2E) Fig8() []Table {
	return e.byFamily("Figure 8 (Exp#2): configuration search cost (seconds; Alpa includes emulated compile+profile charges)",
		[]string{"gpt3", "wresnet"}, []Col{{Head: "size"}, {Head: "GPUs"}, {Head: "Alpa (s)"}, {Head: "Aceso (s)"}, {Head: "Aceso/Alpa", Fmt: "%.1f%%"}},
		func(c *E2ECell) []any {
			if c.AlpaSearch <= 0 {
				return nil
			}
			return []any{c.Size, c.GPUs, c.AlpaSearch, c.AcesoSearch, 100 * c.AcesoSearch / c.AlpaSearch}
		})
}

// TFLOPS is Tables 3–5: effective TFLOPS per GPU.
func (e *E2E) TFLOPS() []Table {
	titles := map[string]string{
		"gpt3":    "Table 3: GPT-3 TFLOPS per GPU",
		"wresnet": "Table 4: Wide-Resnet TFLOPS per GPU",
		"t5":      "Table 5: T5 TFLOPS per GPU",
	}
	var out []Table
	for _, fam := range E2EFamilies {
		cells := e.family(fam)
		if len(cells) == 0 {
			continue
		}
		t := Table{Key: fam, Title: "\n" + titles[fam], Cols: []Col{{Head: "system"}},
			Rows: [][]any{{"Megatron-LM"}, {"Alpa"}, {"Aceso"}}}
		for _, c := range cells {
			t.Cols = append(t.Cols, Col{Head: c.Size})
			for i, tf := range []float64{c.MegatronTF, c.AlpaTF, c.AcesoTF} {
				t.Rows[i] = append(t.Rows[i], tf)
			}
		}
		if fam == "t5" { // no Alpa-like run
			t.Rows = append(t.Rows[:1], t.Rows[2])
		}
		out = append(out, t)
	}
	return out
}

// Fig15 is predicted-vs-actual iteration time (Exp#8).
func (e *E2E) Fig15() []Table {
	return e.accuracy("Figure 15 (Exp#8): predicted vs actual (simulated) iteration time", "s", "%.3f", 1,
		func(c *E2ECell) (float64, float64) { return c.PredTime, c.ActualTime })
}

// Fig16 is predicted-vs-actual peak memory (Exp#9).
func (e *E2E) Fig16() []Table {
	return e.accuracy("Figure 16 (Exp#9): predicted vs actual (simulated) peak memory", "GiB", "%.2f", 1<<30,
		func(c *E2ECell) (float64, float64) { return c.PredMem, c.ActualMem })
}

// accuracy is, per family, what the performance model predicted for
// Aceso's chosen configuration beside what the simulator observed (both
// in units of div), and the relative error in percent.
func (e *E2E) accuracy(title, unit, format string, div float64, pick func(*E2ECell) (pred, actual float64)) []Table {
	sumErr := map[string]float64{}
	out := e.byFamily(title, []string{"gpt3", "wresnet"}, []Col{{Head: "size"}, {Head: "GPUs"},
		{Head: "predicted (" + unit + ")", Fmt: format}, {Head: "actual (" + unit + ")", Fmt: format}, {Head: "error", Fmt: "%.2f%%"}},
		func(c *E2ECell) []any {
			pred, actual := pick(c)
			if actual <= 0 {
				return nil
			}
			err := math.Abs(pred-actual) / actual
			sumErr[c.Family] += err
			return []any{c.Size, c.GPUs, pred / div, actual / div, 100 * err}
		})
	for i := range out[1:] {
		t := &out[1+i]
		t.Title += fmt.Sprintf("  avg error %.2f%%", 100*sumErr[t.Key]/math.Max(1, float64(len(t.Rows))))
	}
	return out
}

func (e *E2E) family(fam string) []E2ECell {
	var out []E2ECell
	for _, c := range e.Cells {
		if c.Family == fam {
			out = append(out, c)
		}
	}
	return out
}
