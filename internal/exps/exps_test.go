package exps

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
)

// fast returns settings tuned for unit tests.
func fast() Settings {
	return Settings{Budget: 250 * time.Millisecond, Seed: 1, Sizes: 2}
}

func TestFig1Growth(t *testing.T) {
	tables := Fig1(nil)
	rows := tables[0].Rows
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for i, r := range rows {
		two, three, four := r[1].(float64), r[2].(float64), r[3].(float64)
		if two >= three || three >= four {
			t.Errorf("row %d: mechanism counts not increasing: %v", i, r)
		}
		if i > 0 && four <= rows[i-1][3].(float64) {
			t.Errorf("row %d: space must grow with layers", i)
		}
	}
	// Sanity: 2-layer, 2-mech on 16 devices = 5² = 25 → log10 ≈ 1.4.
	if two, _, _ := ConfigSpaceSize(2, 16); two < 1.3 || two > 1.5 {
		t.Errorf("ConfigSpaceSize(2,16) 2 mechanisms = %v, want ≈1.4", two)
	}
	var buf bytes.Buffer
	Print(&buf, tables)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestE2ESmall(t *testing.T) {
	e, err := RunE2E(fast(), []string{"gpt3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(e.Cells))
	}
	for _, c := range e.Cells {
		if c.AcesoIter <= 0 {
			t.Errorf("%s-%s: Aceso produced no simulated time", c.Family, c.Size)
		}
		if c.MegatronIter <= 0 {
			t.Errorf("%s-%s: Megatron produced no simulated time", c.Family, c.Size)
		}
		if c.AlpaIter <= 0 {
			t.Errorf("%s-%s: Alpa produced no simulated time", c.Family, c.Size)
		}
		if c.PredTime <= 0 || c.ActualTime <= 0 || c.PredMem <= 0 || c.ActualMem <= 0 {
			t.Errorf("%s-%s: accuracy fields missing", c.Family, c.Size)
		}
		// V100 fp16 peak is 125 TFLOPS: effective must be positive and below it.
		for _, tf := range []float64{c.AcesoTF, c.MegatronTF, c.AlpaTF} {
			if tf <= 0 || tf >= 125 {
				t.Errorf("%s-%s: TFLOPS/GPU %v, want (0, 125)", c.Family, c.Size, tf)
			}
		}
	}
	var buf bytes.Buffer
	for _, tables := range [][]Table{e.Fig7(), e.Fig8(), e.TFLOPS(), e.Fig15(), e.Fig16()} {
		Print(&buf, tables)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7", "Figure 8", "Table 3", "Figure 15", "Figure 16"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestE2EUnknownFamily(t *testing.T) {
	if _, err := RunE2E(fast(), []string{"resnext"}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestFig9Small(t *testing.T) {
	rows, err := Fig9(fast(), []int{8, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AlpaFailed {
		t.Error("8 layers should compile in the Alpa baseline")
	}
	if !rows[1].AlpaFailed {
		t.Error("128 layers must fail Alpa compilation (Exp#3)")
	}
	if rows[1].AcesoIter <= 0 {
		t.Error("Aceso must still handle 128 layers")
	}
	var buf bytes.Buffer
	Print(&buf, rows.Tables())
	if !strings.Contains(buf.String(), "x") {
		t.Error("render should mark the Alpa failure with x")
	}
}

func TestFig11Stats(t *testing.T) {
	r, err := Fig11(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tries) == 0 || len(r.Hops) == 0 {
		t.Fatal("no histogram data collected")
	}
	if rate := r.FirstTryRate(); rate <= 0 || rate > 1 {
		t.Errorf("FirstTryRate = %v", rate)
	}
	var buf bytes.Buffer
	Print(&buf, r.Tables())
	if !strings.Contains(buf.String(), "bottlenecks tried") {
		t.Error("render missing histogram (a)")
	}
}

func TestFig12Curves(t *testing.T) {
	set := fast()
	curves, err := Fig12(set)
	if err != nil {
		t.Fatal(err)
	}
	for key, cs := range curves.Groups {
		if len(cs) != 4 { // heuristic-2 + 3 random runs
			t.Errorf("%s: %d curves, want 4", key, len(cs))
		}
		for _, c := range cs {
			if len(c.Best) != curveSamples {
				t.Errorf("%s/%s: %d samples", key, c.Label, len(c.Best))
			}
			// Curves must be non-increasing once feasible.
			last := 0.0
			for _, v := range c.Best {
				if last > 0 && v > last {
					t.Errorf("%s/%s: convergence curve increased", key, c.Label)
				}
				if v > 0 {
					last = v
				}
			}
		}
	}
	var buf bytes.Buffer
	Print(&buf, curves.Tables())
	if !strings.Contains(buf.String(), "heuristic-2") {
		t.Error("render missing heuristic-2 curve")
	}
}

func TestFig14Initializers(t *testing.T) {
	curves, err := Fig14(fast())
	if err != nil {
		t.Fatal(err)
	}
	for key, cs := range curves.Groups {
		if len(cs) != 3 {
			t.Errorf("%s: %d curves, want 3", key, len(cs))
		}
	}
}

func TestCases(t *testing.T) {
	cases, err := Cases(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2 {
		t.Fatalf("cases = %d, want 2", len(cases))
	}
	for _, cs := range cases {
		if cs.Config == nil {
			t.Errorf("%s: no plan", cs.Title)
		}
	}
	tables := cases.Tables()
	for i, tb := range tables[1:] {
		if n := cases[i].Config.NumStages(); len(tb.Rows) != n {
			t.Errorf("%s: %d stage rows for %d stages", tb.Key, len(tb.Rows), n)
		}
	}
	var buf bytes.Buffer
	Print(&buf, tables)
	if !strings.Contains(buf.String(), "GPT-3 1.3B") {
		t.Error("render missing GPT case")
	}
}

func TestSampleCurve(t *testing.T) {
	points := []struct {
		ms    int
		score float64
	}{{10, 5}, {50, 3}, {90, 2}}
	var conv []corePoint
	for _, p := range points {
		conv = append(conv, corePoint{time.Duration(p.ms) * time.Millisecond, p.score})
	}
	got := sampleCurve(toConv(conv), 100*time.Millisecond, 4)
	want := []float64{5, 3, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sampleCurve[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// corePoint mirrors obs.ConvergencePoint for table-driven tests.
type corePoint struct {
	elapsed time.Duration
	score   float64
}

func toConv(ps []corePoint) []obs.ConvergencePoint {
	out := make([]obs.ConvergencePoint, len(ps))
	for i, p := range ps {
		out[i] = obs.ConvergencePoint{Elapsed: p.elapsed, IterTime: p.score}
	}
	return out
}

// TestCSVWriters: every artifact's CSV is its tables' header and rows,
// numbers at full precision and markers as printed.
func TestCSVWriters(t *testing.T) {
	csvOf := func(tb Table) string {
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got := csvOf(Fig1([]int{2, 4})[0]); strings.Count(got, "\n") != 3 ||
		!strings.Contains(got, "2,1.3979400086720375,") {
		t.Errorf("fig1 csv = %s", got)
	}

	e, err := RunE2E(Settings{Budget: 150 * time.Millisecond, Seed: 1, Sizes: 1}, []string{"gpt3"})
	if err != nil {
		t.Fatal(err)
	}
	if got := csvOf(e.Raw()[0]); !strings.HasPrefix(got, "family,size,gpus,") || !strings.Contains(got, "gpt3,350M,1,") {
		t.Errorf("e2e csv = %s", got)
	}

	rows := Fig9Rows{{Layers: 8, AcesoSearch: 1.0000000001, AlpaFailed: true}}
	if got := csvOf(rows.Tables()[0]); !strings.Contains(got, "8,x,1.0000000001,x,0,-") {
		t.Errorf("fig9 csv = %s", got)
	}

	if got := csvOf((&Fig11Result{Tries: []int{5}, Hops: []int{3, 2}}).Tables()[2]); got != "hops,iterations\n1,3\n2,2\n" {
		t.Errorf("fig11 hops csv = %q", got)
	}

	curves := &Curves{Groups: map[string][]Curve{"g": {{Label: "v", Best: []float64{0, 1.0 / 3}}},
		"h": {{Label: "w", Best: []float64{0, 0, 0, 0, 0, 0, 0, 2}}}}}
	if got := csvOf(curves.Tables()[1]); got != "variant,50%,100%\nv,-,0.3333333333333333\n" {
		t.Errorf("curves csv = %q", got)
	}
	// An 8-sample grid heads its columns with the exact share.
	if got := csvOf(curves.Tables()[2]); got != "variant,12.5%,25%,37.5%,50%,62.5%,75%,87.5%,100%\nw,-,-,-,-,-,-,-,2\n" {
		t.Errorf("8-sample curves csv = %q", got)
	}

	shared := SharedRows{{Planner: "aceso", Samples: 10, PlanOverhead: 1500 * time.Millisecond,
		Windows: []SharedWindow{{GPUs: 8, Duration: time.Hour, PlanTime: time.Millisecond}}}}
	if got := csvOf(shared.Tables()[1]); !strings.Contains(got, "0,8,3600,0.001,0,0") {
		t.Errorf("shared windows csv = %q", got)
	}
}

// TestSharedClusterComparesPlanners plays GPT-3 1.3B through 8 → 4 → 8
// GPUs: the Alpa-like solver's emulated compile time must cost real
// training time against Aceso's — the paper's §1 motivation.
func TestSharedClusterComparesPlanners(t *testing.T) {
	g, err := model.GPT3("1.3B")
	if err != nil {
		t.Fatal(err)
	}
	trace := []allocation{{0, 8}, {30 * time.Minute, 4}, {60 * time.Minute, 8}}
	rows, err := sharedCluster(g, hardware.DGX1V100(1), trace, 90*time.Minute,
		Settings{Budget: 300 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]SharedRow{}
	for _, r := range rows {
		byName[r.Planner] = r
		if r.Samples <= 0 {
			t.Errorf("%s trained no samples", r.Planner)
		}
		if len(r.Windows) != 3 {
			t.Errorf("%s: %d windows, want 3", r.Planner, len(r.Windows))
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s: utilization %v", r.Planner, r.Utilization)
		}
	}
	if byName["alpa"].PlanOverhead <= byName["aceso"].PlanOverhead {
		t.Error("alpa plan overhead should exceed aceso's")
	}
	if byName["alpa"].Utilization >= byName["aceso"].Utilization {
		t.Error("aceso should utilize the cluster better under churn")
	}
	var buf bytes.Buffer
	Print(&buf, rows.Tables())
	if !strings.Contains(buf.String(), "aceso-warm") {
		t.Errorf("render missing the warm planner:\n%s", buf.String())
	}
}

// TestPlanningTimeEatsTraining: a window shorter than its planning
// time trains nothing; the rest of a longer one trains at the plan's
// rate.
func TestPlanningTimeEatsTraining(t *testing.T) {
	if got := samples(200*time.Millisecond, 400*time.Millisecond, 0.5, 64); got != 0 {
		t.Errorf("window shorter than planning trained %v samples, want 0", got)
	}
	if got := samples(10*time.Second, 4*time.Second, 0.5, 64); got != 6/0.5*64 {
		t.Errorf("6 s of training at 0.5 s/iter × 64 = %v samples, want 768", got)
	}
}

func TestFig13MaxHopsCurves(t *testing.T) {
	curves, err := Fig13(fast())
	if err != nil {
		t.Fatal(err)
	}
	for key, cs := range curves.Groups {
		if len(cs) != 4 { // MaxHops 1, 3, 7, 11
			t.Errorf("%s: %d curves, want 4", key, len(cs))
		}
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations(fast())
	if err != nil {
		t.Fatal(err)
	}
	rows, memRatio := res.Rows, res.GPipeMemRatio
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.BestIter <= 0 || r.Explored <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Variant, r)
		}
	}
	if memRatio <= 1 {
		t.Errorf("GPipe/1F1B memory ratio = %v, want > 1", memRatio)
	}
	var buf bytes.Buffer
	Print(&buf, res.Tables())
	if !strings.Contains(buf.String(), "GPipe peak memory") {
		t.Error("render missing scheduling note")
	}
}
