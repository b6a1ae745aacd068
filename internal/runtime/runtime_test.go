package runtime

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/tensor"
)

const (
	dim    = 8
	layers = 4
	batch  = 16
	lr     = 0.05
	iters  = 3
	tol    = 1e-9
)

func buildMLP(t testing.TB) *model.Graph {
	t.Helper()
	g, err := model.MLP(layers, dim, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func data(seed int64) (x, y *tensor.Mat) {
	rng := rand.New(rand.NewSource(seed))
	x = tensor.New(batch, dim)
	y = tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	return x, y
}

// checkEquivalence trains serially and under cfg, then compares losses
// and final weights.
func checkEquivalence(t *testing.T, g *model.Graph, cfg *config.Config) {
	t.Helper()
	x, y := data(42)
	ref := InitParams(g, 7)
	par := ref.Clone()

	refLosses, err := Serial(g, ref, x, y, cfg.MicroBatch, lr, iters)
	if err != nil {
		t.Fatal(err)
	}
	parLosses, err := Parallel(g, cfg, par, x, y, lr, iters, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(refLosses) != len(parLosses) {
		t.Fatalf("loss count %d vs %d", len(refLosses), len(parLosses))
	}
	for i := range refLosses {
		if math.Abs(refLosses[i]-parLosses[i]) > tol {
			t.Errorf("iter %d: serial loss %.12f vs parallel %.12f", i, refLosses[i], parLosses[i])
		}
	}
	if d := ref.MaxDiff(par); d > tol {
		t.Errorf("final weights differ by %g (config %v)", d, cfg)
	}
	// Training must actually make progress.
	if refLosses[len(refLosses)-1] >= refLosses[0] {
		t.Errorf("loss did not decrease: %v", refLosses)
	}
}

// uniform builds a config with the same tp/dp on every op.
func uniform(t *testing.T, g *model.Graph, stages, devPerStage, tp, dp, mbs int) *config.Config {
	t.Helper()
	cfg, err := config.Balanced(g, stages*devPerStage, stages, mbs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: tp, DP: dp, Dim: 0}
		}
	}
	if err := cfg.Validate(g, stages*devPerStage); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSingleDeviceMatchesSerial(t *testing.T) {
	g := buildMLP(t)
	checkEquivalence(t, g, uniform(t, g, 1, 1, 1, 1, 4))
}

func TestDataParallel(t *testing.T) {
	g := buildMLP(t)
	checkEquivalence(t, g, uniform(t, g, 1, 4, 1, 4, 8))
}

func TestColumnTensorParallel(t *testing.T) {
	g := buildMLP(t)
	checkEquivalence(t, g, uniform(t, g, 1, 4, 4, 1, 4))
}

func TestRowTensorParallel(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 1, 4, 4, 1, 4)
	// Flip every linear to its row-parallel dim.
	for j := range cfg.Stages[0].Ops {
		if g.Ops[j].Kind == model.KindMatMul {
			cfg.Stages[0].Ops[j].Dim = g.Ops[j].DimIndex("row")
		}
	}
	checkEquivalence(t, g, cfg)
}

func TestHybridTPDP(t *testing.T) {
	g := buildMLP(t)
	checkEquivalence(t, g, uniform(t, g, 1, 4, 2, 2, 4))
}

func TestPipelineParallel(t *testing.T) {
	g := buildMLP(t)
	checkEquivalence(t, g, uniform(t, g, 2, 1, 1, 1, 4))
	checkEquivalence(t, g, uniform(t, g, 4, 1, 1, 1, 2))
}

func TestPipelineWithTPAndDP(t *testing.T) {
	g := buildMLP(t)
	checkEquivalence(t, g, uniform(t, g, 2, 4, 2, 2, 4))
}

func TestRecomputation(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 2, 2, 2, 1, 4)
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j].Recompute = true
		}
	}
	checkEquivalence(t, g, cfg)
}

func TestPartialRecomputation(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 2, 2, 1, 2, 4)
	cfg.Stages[0].Ops[1].Recompute = true
	cfg.Stages[1].Ops[0].Recompute = true
	checkEquivalence(t, g, cfg)
}

func TestMixedTilingWithinStage(t *testing.T) {
	// The §4.2 fine-tuning shape: first half 2dp×2tp, second half
	// 4-way tp, same stage.
	g := buildMLP(t)
	cfg := uniform(t, g, 1, 4, 2, 2, 4)
	half := len(cfg.Stages[0].Ops) / 2
	for j := half; j < len(cfg.Stages[0].Ops); j++ {
		cfg.Stages[0].Ops[j] = config.OpSetting{TP: 4, DP: 1, Dim: 0}
	}
	if err := cfg.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, g, cfg)
}

func TestMixedDimsWithinStage(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 1, 2, 2, 1, 4)
	// Alternate col/row linear sharding.
	flip := true
	for j := range cfg.Stages[0].Ops {
		if g.Ops[j].Kind != model.KindMatMul {
			continue
		}
		if flip {
			cfg.Stages[0].Ops[j].Dim = g.Ops[j].DimIndex("row")
		}
		flip = !flip
	}
	checkEquivalence(t, g, cfg)
}

// TestSearchedConfigsAreSemanticPreserving is the paper's §4
// correctness check end to end: run the Aceso search on an MLP, then
// numerically execute its top candidates and require every one to
// train identically to the serial reference.
func TestSearchedConfigsAreSemanticPreserving(t *testing.T) {
	g := buildMLP(t)
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := core.Search(g, cl, core.Options{
		TimeBudget:  400 * time.Millisecond,
		StageCounts: []int{1, 2, 4},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, cand := range res.TopK {
		cfg := cand.Config
		// Skip configs whose tp exceeds the tiny dim's divisibility.
		ok := true
		for i := range cfg.Stages {
			for j := cfg.Stages[i].Start; j < cfg.Stages[i].End; j++ {
				if g.Ops[j].Kind == model.KindMatMul &&
					dim%cfg.Stages[i].Setting(j).TP != 0 {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		checkEquivalence(t, g, cfg)
		checked++
	}
	if checked == 0 {
		t.Fatal("no searched candidate was executable")
	}
	t.Logf("validated %d searched configurations numerically", checked)
}

func TestParallelRejectsBadInputs(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 1, 1, 1, 1, 4)
	x, y := data(1)
	p := InitParams(g, 1)

	short := tensor.New(batch-1, dim)
	if _, err := Parallel(g, cfg, p, short, y, lr, 1, RunOptions{}); err == nil {
		t.Error("short X accepted")
	}
	if _, err := Parallel(g, cfg, p, x, short, lr, 1, RunOptions{}); err == nil {
		t.Error("short Y accepted")
	}
	bad := uniform(t, g, 1, 1, 1, 1, 4)
	bad.MicroBatch = 3 // does not divide 16
	if _, err := Parallel(g, bad, p, x, y, lr, 1, RunOptions{}); err == nil {
		t.Error("non-dividing microbatch accepted")
	}
	// tp that does not divide dim.
	g2, err := model.MLP(2, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := config.Balanced(g2, 4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	x2 := tensor.New(8, 6)
	y2 := tensor.New(8, 6)
	if _, err := Parallel(g2, cfg2, InitParams(g2, 1), x2, y2, lr, 1, RunOptions{}); err == nil {
		t.Error("tp=4 on dim 6 accepted")
	}
}

func TestSerialRejectsBadInputs(t *testing.T) {
	g := buildMLP(t)
	x, y := data(1)
	p := InitParams(g, 1)
	if _, err := Serial(g, p, x, y, 3, lr, 1); err == nil {
		t.Error("non-dividing microbatch accepted")
	}
	if _, err := Serial(g, p, tensor.New(4, dim), y, 2, lr, 1); err == nil {
		t.Error("short X accepted")
	}
}

func TestInitParamsDeterministic(t *testing.T) {
	g := buildMLP(t)
	a, b := InitParams(g, 5), InitParams(g, 5)
	if a.MaxDiff(b) != 0 {
		t.Error("InitParams not deterministic")
	}
	c := InitParams(g, 6)
	if a.MaxDiff(c) == 0 {
		t.Error("different seeds give identical params")
	}
}

func buildMLPLN(t testing.TB) *model.Graph {
	t.Helper()
	g, err := model.MLPWithNorm(layers, dim, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLayerNormSerialMatchesParallel(t *testing.T) {
	g := buildMLPLN(t)
	checkEquivalence(t, g, uniform(t, g, 1, 1, 1, 1, 4))
	checkEquivalence(t, g, uniform(t, g, 1, 4, 1, 4, 8)) // dp
	checkEquivalence(t, g, uniform(t, g, 2, 2, 2, 1, 4)) // pp × tp
}

func TestLayerNormUnderTensorParallelGather(t *testing.T) {
	// With tp, the layer norm receives a column-split activation from
	// the preceding column-parallel linear: the runtime must gather,
	// compute replicated, and continue — exactly the relayout the
	// performance model charges for.
	g := buildMLPLN(t)
	checkEquivalence(t, g, uniform(t, g, 1, 4, 4, 1, 4))
}

func TestLayerNormWithRecompute(t *testing.T) {
	g := buildMLPLN(t)
	cfg := uniform(t, g, 2, 2, 2, 1, 4)
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j].Recompute = true
		}
	}
	checkEquivalence(t, g, cfg)
}

func TestAdamSerialMatchesParallel(t *testing.T) {
	// Adam's per-parameter moment state must evolve identically under
	// every parallelism mode — this is what makes M_opt in Eq. 1 a
	// fixed per-parameter cost that tp can shard.
	g := buildMLP(t)
	for _, cfg := range []*config.Config{
		uniform(t, g, 1, 4, 1, 4, 8), // dp
		uniform(t, g, 1, 4, 4, 1, 4), // tp
		uniform(t, g, 2, 2, 2, 1, 4), // pp × tp
	} {
		x, y := data(42)
		ref := InitParams(g, 7)
		ref.Opt = Adam
		par := ref.Clone()
		refLosses, err := Serial(g, ref, x, y, cfg.MicroBatch, lr, iters)
		if err != nil {
			t.Fatal(err)
		}
		parLosses, err := Parallel(g, cfg, par, x, y, lr, iters, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range refLosses {
			if math.Abs(refLosses[i]-parLosses[i]) > tol {
				t.Errorf("iter %d: serial %.12f vs parallel %.12f", i, refLosses[i], parLosses[i])
			}
		}
		if d := ref.MaxDiff(par); d > tol {
			t.Errorf("Adam weights differ by %g under %v", d, cfg)
		}
	}
}

func TestAdamConvergesFasterHere(t *testing.T) {
	// Not a general truth, but on this conditioning Adam's adaptive
	// steps should at least train (sanity that the state math moves).
	g := buildMLP(t)
	x, y := data(42)
	sgd := InitParams(g, 7)
	sgdLosses, err := Serial(g, sgd, x, y, 4, lr, 5)
	if err != nil {
		t.Fatal(err)
	}
	adam := InitParams(g, 7)
	adam.Opt = Adam
	adamLosses, err := Serial(g, adam, x, y, 4, lr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if adamLosses[4] >= adamLosses[0] {
		t.Errorf("Adam did not descend: %v", adamLosses)
	}
	if sgdLosses[4] >= sgdLosses[0] {
		t.Errorf("SGD did not descend: %v", sgdLosses)
	}
	// The two optimizers must actually differ.
	if math.Abs(adamLosses[4]-sgdLosses[4]) < 1e-15 {
		t.Error("Adam and SGD produced identical trajectories")
	}
}

// TestParallelIsBitwiseRepeatable: a tensor-parallel all-reduce sums
// its four ranks' partials in group order, so five runs of one tp4 Adam
// trajectory give the same bits — losses, weights and moments — however
// the rank goroutines happen to arrive.
func TestParallelIsBitwiseRepeatable(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 1, 4, 4, 1, 4)
	x, y := data(42)
	var want uint64
	for run := 0; run < 5; run++ {
		p := InitParams(g, 7)
		p.Opt = Adam
		losses, err := Parallel(g, cfg, p, x, y, lr, 5, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, l := range losses {
			binary.Write(h, binary.LittleEndian, math.Float64bits(l))
		}
		for k := range p.T {
			var ids []int
			for id := range p.T[k] {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				for _, v := range p.T[k][id].Data {
					binary.Write(h, binary.LittleEndian, math.Float64bits(v))
				}
			}
		}
		if run == 0 {
			want = h.Sum64()
		} else if got := h.Sum64(); got != want {
			t.Fatalf("run %d hashes %016x, run 0 %016x", run, got, want)
		}
	}
}
