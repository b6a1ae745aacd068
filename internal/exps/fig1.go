package exps

import "math"

// ConfigSpaceSize counts (in log10) the possible configurations of an
// L-layer model over D devices under 2, 3 and 4 mechanisms, reproducing
// Figure 1's growth:
//
//   - 2 mechanisms (data + tensor parallelism): every layer picks a
//     tp×dp factorization of D — (log2 D + 1) choices per layer.
//   - 3 mechanisms (+ pipeline parallelism): every layer boundary may
//     start a new stage — ×2^(L−1) stage partitions.
//   - 4 mechanisms (+ recomputation): every layer independently
//     recomputes or not — ×2^L.
func ConfigSpaceSize(layers, devices int) (two, three, four float64) {
	perLayer := math.Log2(float64(devices)) + 1
	l := float64(layers)
	two = l * math.Log10(perLayer)
	three = two + (l-1)*math.Log10(2)
	four = three + l*math.Log10(2)
	return two, three, four
}

// Fig1 is the configuration-space table for GPT-style models on 16
// devices across the given layer counts.
func Fig1(layerCounts []int) []Table {
	if len(layerCounts) == 0 {
		layerCounts = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1000}
	}
	t := Table{
		Title: "Figure 1: possible configurations (log10) vs model layers, GPT on 16 devices",
		Cols:  []Col{{Head: "layers"}, {Head: "2 mechanisms", Fmt: "1e%.0f"}, {Head: "3 mechanisms", Fmt: "1e%.0f"}, {Head: "4 mechanisms", Fmt: "1e%.0f"}},
	}
	for _, l := range layerCounts {
		two, three, four := ConfigSpaceSize(l, 16)
		t.Rows = append(t.Rows, []any{l, two, three, four})
	}
	return []Table{t}
}
