package exps

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"aceso/internal/config"
)

// paperRows is fixed synthetic input for every paper artifact: each
// marker a renderer prints ("-", "x", a skipped row, a missing note) is
// reached at least once.
func paperRows() (e2e *E2E, fig9 Fig9Rows, fig10 Fig10Rows, fig11 *Fig11Result,
	curves map[string][]Curve, abl *AblationResult, cases CaseStudies, shared SharedRows) {
	e2e = &E2E{
		Cells: []E2ECell{
			{Family: "gpt3", Size: "350M", GPUs: 1, AcesoIter: 1.25, MegatronIter: 1.25, AlpaIter: 1.25,
				AcesoTF: 41.123456, MegatronTF: 41.123456, AlpaTF: 41.123456, AcesoSearch: 0.012345, AlpaSearch: 12.5,
				PredTime: 1.2, ActualTime: 1.25, PredMem: 9.5 * (1 << 30), ActualMem: 10 * (1 << 30)},
			{Family: "gpt3", Size: "1.3B", GPUs: 4, AcesoIter: 2.5, MegatronIter: 3.1, AlpaIter: 2.75,
				AcesoTF: 52.5, MegatronTF: 42.3456, AlpaTF: 47.7, AcesoSearch: 1.987654, AlpaSearch: 321.123,
				PredTime: 2.4, ActualTime: 2.5, PredMem: 20e9, ActualMem: 21.5e9},
			{Family: "gpt3", Size: "2.6B", GPUs: 8, AcesoSearch: 2.01},
			{Family: "wresnet", Size: "250M", GPUs: 1, AcesoIter: 0.5, AlpaIter: 0.5, AcesoTF: 30.05, AlpaTF: 30.05,
				AcesoSearch: 0.5, AlpaSearch: 30, PredTime: 0.55, ActualTime: 0.5, PredMem: 3e9, ActualMem: 2.9e9},
			{Family: "t5", Size: "770M", GPUs: 4, AcesoIter: 0.8, MegatronIter: 0.96, AcesoTF: 33.3, MegatronTF: 27.75,
				AcesoSearch: 1.5, PredTime: 0.7, ActualTime: 0.8},
		},
	}
	fig9 = Fig9Rows{
		{Layers: 8, AcesoSearch: 0.25, AcesoIter: 1.5, AlpaSearch: 60.25, AlpaIter: 1.875},
		{Layers: 64, AcesoSearch: 1.75, AcesoIter: 9.125, AlpaSearch: 4000.5},
		{Layers: 1024, AcesoSearch: 2.05, AlpaFailed: true},
	}
	fig10 = Fig10Rows{
		{Model: "GPT-3 2.6B", GPUs: 8, DPExplored: 123456, AcesoExplored: 4321, DPIter: 3.456, AcesoIter: 3.21},
		{Model: "GPT-3 6.7B", GPUs: 16, AcesoExplored: 99, AcesoIter: 7.5},
	}
	fig11 = &Fig11Result{Tries: []int{9, 1, 0, 2, 0, 0, 0, 0, 0, 1}, Hops: []int{3, 5, 1}}
	curves = map[string][]Curve{
		"Wide-ResNet 2B, 4 GPUs": {
			{Label: "heuristic-2", Best: []float64{0, 3.5, 3.25, 3.125}},
			{Label: "random-1", Best: []float64{0, 0, 4, 3.75}},
		},
		"GPT-3 1.3B, 4 GPUs": {
			{Label: "heuristic-2", Best: []float64{2.5, 2.25, 2.125, 2.0625}},
		},
	}
	abl = &AblationResult{
		Rows: []AblationRow{
			{Variant: "baseline (BranchFactor=3, fine-tune, H2)", BestIter: 2.34567, Explored: 1234},
			{Variant: "no fine-tuning", BestIter: 2.5, Explored: 99},
		},
		GPipeMemRatio: 1.745,
	}
	uneven := &config.Config{MicroBatch: 2, Stages: []config.Stage{
		{Start: 0, End: 3, Devices: 2, Ops: []config.OpSetting{
			{TP: 1, DP: 2, Recompute: true}, {TP: 2, DP: 1}, {TP: 1, DP: 2}}},
		{Start: 3, End: 4, Devices: 2, Ops: []config.OpSetting{{TP: 2, DP: 1, Recompute: true}}},
	}}
	even := &config.Config{MicroBatch: 1, Stages: []config.Stage{
		{Start: 0, End: 2, Devices: 4, Ops: []config.OpSetting{{TP: 4, DP: 1}, {TP: 4, DP: 1}}},
		{Start: 2, End: 4, Devices: 4, Ops: []config.OpSetting{{TP: 2, DP: 2}, {TP: 4, DP: 1}}},
	}}
	cases = CaseStudies{
		{Key: "gpt3-1.3B", Title: "GPT-3 1.3B on 4 GPUs (§5.4: uneven pipeline stages)", Config: uneven},
		{Key: "wresnet-6.8B", Title: "Wide-ResNet 6.8B on 16 GPUs (§5.4: per-op dp×tp mixes)", Config: even},
	}
	shared = SharedRows{
		{Planner: "aceso", Samples: 123456789.4, PlanOverhead: 10*time.Second + 400*time.Millisecond, Utilization: 0.99942,
			Windows: []SharedWindow{
				{GPUs: 16, Duration: time.Hour, PlanTime: 2*time.Second + 345678*time.Microsecond, IterTime: 3.25, Samples: 1134000.5},
				{GPUs: 8, Duration: 90 * time.Minute, PlanTime: 1500 * time.Microsecond, IterTime: 6.5},
			}},
		{Planner: "aceso-warm", Samples: 124000000, PlanOverhead: 4*time.Second + 600*time.Millisecond, Utilization: 0.99974},
		{Planner: "alpa", Samples: 61728394.7, PlanOverhead: 2*time.Hour + 3*time.Minute + 4500*time.Millisecond, Utilization: 0.5897},
	}
	return
}

// paperText renders every paper artifact from paperRows, each after a
// line naming it.
func paperText() []byte {
	e2e, fig9, fig10, fig11, curves, abl, cases, shared := paperRows()
	curve := func(title string) *Curves { return &Curves{Title: title, Groups: curves} }
	artifacts := []struct {
		name   string
		tables []Table
	}{
		{"fig1", Fig1([]int{2, 16, 1000})},
		{"fig7", e2e.Fig7()},
		{"fig8", e2e.Fig8()},
		{"tables", e2e.TFLOPS()},
		{"fig15", e2e.Fig15()},
		{"fig16", e2e.Fig16()},
		{"fig9", fig9.Tables()},
		{"fig10", fig10.Tables()},
		{"fig11", fig11.Tables()},
		{"fig12", curve("Figure 12 (Exp#5): convergence with vs without Heuristic-2").Tables()},
		{"fig13", curve("Figure 13 (Exp#6): convergence under different MaxHops").Tables()},
		{"fig14", curve("Figure 14 (Exp#7): robustness to the initial configuration").Tables()},
		{"ablations", abl.Tables()},
		{"cases", cases.Tables()},
		{"shared", shared.Tables()},
	}
	var got bytes.Buffer
	for _, a := range artifacts {
		fmt.Fprintf(&got, "==== %s\n", a.name)
		Print(&got, a.tables)
	}
	return got.Bytes()
}

// TestPaperText pins the whole text every paper artifact prints for
// paperRows (testdata/paper.golden): Figures 1 and 7–16, Tables 3–5,
// the case studies, the shared cluster and the ablations.
func TestPaperText(t *testing.T) {
	got := paperText()
	want, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("paper text differs from testdata/paper.golden:\n%s", got)
	}
}
