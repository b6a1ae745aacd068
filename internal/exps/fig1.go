package exps

import (
	"fmt"
	"io"
	"math"
)

// Fig1Row is one point of Figure 1: the size of the configuration
// space (log10) at a layer count, under 2, 3 and 4 mechanisms.
type Fig1Row struct {
	Layers                          int
	Log10Two, Log10Three, Log10Four float64
}

// ConfigSpaceSize counts (in log10) the possible configurations of an
// L-layer model over D devices, reproducing Figure 1's growth:
//
//   - 2 mechanisms (data + tensor parallelism): every layer picks a
//     tp×dp factorization of D — (log2 D + 1) choices per layer.
//   - 3 mechanisms (+ pipeline parallelism): every layer boundary may
//     start a new stage — ×2^(L−1) stage partitions.
//   - 4 mechanisms (+ recomputation): every layer independently
//     recomputes or not — ×2^L.
func ConfigSpaceSize(layers, devices int) Fig1Row {
	perLayer := math.Log2(float64(devices)) + 1
	l := float64(layers)
	two := l * math.Log10(perLayer)
	three := two + (l-1)*math.Log10(2)
	four := three + l*math.Log10(2)
	return Fig1Row{Layers: layers, Log10Two: two, Log10Three: three, Log10Four: four}
}

// Fig1 computes the configuration-space growth for GPT-style models on
// 16 devices across the given layer counts.
func Fig1(layerCounts []int) []Fig1Row {
	if len(layerCounts) == 0 {
		layerCounts = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1000}
	}
	out := make([]Fig1Row, 0, len(layerCounts))
	for _, l := range layerCounts {
		out = append(out, ConfigSpaceSize(l, 16))
	}
	return out
}

// RenderFig1 prints the configuration-space table.
func RenderFig1(w io.Writer, rows []Fig1Row) {
	fmt.Fprintln(w, "Figure 1: possible configurations (log10) vs model layers, GPT on 16 devices")
	t := &table{Header: []string{"layers", "2 mechanisms", "3 mechanisms", "4 mechanisms"}}
	for _, r := range rows {
		t.Add(r.Layers,
			fmt.Sprintf("1e%.0f", r.Log10Two),
			fmt.Sprintf("1e%.0f", r.Log10Three),
			fmt.Sprintf("1e%.0f", r.Log10Four))
	}
	t.Render(w)
}
