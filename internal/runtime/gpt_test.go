package runtime

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/tensor"
)

const (
	gptLayers = 2
	gptSeq    = 6
	gptHidden = 8
	gptHeads  = 4
	gptBatch  = 8
)

func buildTinyGPT(t testing.TB) (*model.Graph, Arch) {
	t.Helper()
	g, err := model.TinyGPT(gptLayers, gptSeq, gptHidden, gptHeads, gptBatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, Arch{Seq: gptSeq, Hidden: gptHidden, Heads: gptHeads}
}

func gptData(seed int64) (x, y *tensor.Mat) {
	rng := rand.New(rand.NewSource(seed))
	rows := gptBatch * gptSeq
	x = tensor.New(rows, gptHidden)
	y = tensor.New(rows, gptHidden)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	return x, y
}

// checkGPTEquivalence trains the transformer serially and under cfg.
func checkGPTEquivalence(t *testing.T, g *model.Graph, arch Arch, cfg *config.Config) {
	t.Helper()
	x, y := gptData(21)
	ref, err := InitParamsArch(g, arch, 7)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Errorf("iter %d: serial loss %.12f vs parallel %.12f", i, refLosses[i], parLosses[i])
		}
	}
	if d := ref.MaxDiff(par); d > tol {
		t.Errorf("final weights differ by %g", d)
	}
	if refLosses[len(refLosses)-1] >= refLosses[0] {
		t.Errorf("transformer loss did not decrease: %v", refLosses)
	}
}

// gptUniform builds a uniform config over the TinyGPT graph.
func gptUniform(t *testing.T, g *model.Graph, stages, devPerStage, tp, dp, mbs int) *config.Config {
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

func TestGPTSingleDevice(t *testing.T) {
	g, arch := buildTinyGPT(t)
	checkGPTEquivalence(t, g, arch, gptUniform(t, g, 1, 1, 1, 1, 4))
}

func TestGPTDataParallel(t *testing.T) {
	g, arch := buildTinyGPT(t)
	checkGPTEquivalence(t, g, arch, gptUniform(t, g, 1, 4, 1, 4, 4))
}

func TestGPTTensorParallelHeads(t *testing.T) {
	// tp=2 and tp=4 split the 4 attention heads across ranks; QKV is
	// column-parallel head-major, the projection row-parallel.
	g, arch := buildTinyGPT(t)
	checkGPTEquivalence(t, g, arch, gptUniform(t, g, 1, 2, 2, 1, 4))
	checkGPTEquivalence(t, g, arch, gptUniform(t, g, 1, 4, 4, 1, 4))
}

func TestGPTPipeline(t *testing.T) {
	g, arch := buildTinyGPT(t)
	checkGPTEquivalence(t, g, arch, gptUniform(t, g, 2, 1, 1, 1, 2))
	checkGPTEquivalence(t, g, arch, gptUniform(t, g, 4, 1, 1, 1, 2))
}

func TestGPTHybridWithRecompute(t *testing.T) {
	g, arch := buildTinyGPT(t)
	cfg := gptUniform(t, g, 2, 4, 2, 2, 4)
	for j := range cfg.Stages[0].Ops {
		cfg.Stages[0].Ops[j].Recompute = true
	}
	checkGPTEquivalence(t, g, arch, cfg)
}

func TestGPTMegatronShape(t *testing.T) {
	// The canonical Megatron layout: 2 stages × (2tp × 2dp), every
	// mechanism at once.
	g, arch := buildTinyGPT(t)
	checkGPTEquivalence(t, g, arch, gptUniform(t, g, 2, 4, 2, 2, 4))
}

func TestGPTRejectsBadHeads(t *testing.T) {
	// tp=8 > 4 heads must be rejected, not mis-sharded.
	g, arch := buildTinyGPT(t)
	cfg, err := config.Balanced(g, 8, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := InitParamsArch(g, arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, y := gptData(1)
	if _, err := Parallel(g, cfg, p, x, y, lr, 1, RunOptions{}); err == nil {
		t.Fatal("tp=8 over 4 heads accepted")
	}
}

func TestInitParamsArchShapes(t *testing.T) {
	g, arch := buildTinyGPT(t)
	p, err := InitParamsArch(g, arch, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Ops {
		op := &g.Ops[i]
		switch op.Kind {
		case model.KindMatMul:
			w := p.T[W][i]
			if w.Cols != int(op.ActElems) {
				t.Errorf("op %d (%s): W cols %d, want %d", i, op.Name, w.Cols, int(op.ActElems))
			}
			if w.Rows%gptHidden != 0 {
				t.Errorf("op %d (%s): W rows %d not multiple of hidden", i, op.Name, w.Rows)
			}
		case model.KindLayerNorm:
			if p.T[W][i].Cols != gptHidden {
				t.Errorf("op %d: LN width %d", i, p.T[W][i].Cols)
			}
		}
	}
	// Width chain errors surface.
	bad := model.Uniform(2, 1e9, 1e6, 8, 4)
	bad.Ops[1].Kind = model.KindAttentionCore // 8 not divisible by 3
	if _, err := InitParamsArch(bad, Arch{Seq: 2, Hidden: 8, Heads: 2}, 1); err == nil {
		t.Error("bad width chain accepted")
	}
}

// TestSearchedGPTConfigsAreSemanticPreserving closes the loop for
// transformers: the Aceso search plans parallelizations of the TinyGPT
// graph, and every runnable candidate must train identically to the
// serial reference.
func TestSearchedGPTConfigsAreSemanticPreserving(t *testing.T) {
	g, arch := buildTinyGPT(t)
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := core.Search(g, cl, core.Options{
		TimeBudget:  400 * time.Millisecond,
		StageCounts: []int{1, 2},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := InitParamsArch(g, arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, cand := range res.TopK {
		cfg := cand.Config
		ok := true
		for i := range cfg.Stages {
			for j := cfg.Stages[i].Start; j < cfg.Stages[i].End; j++ {
				set := cfg.Stages[i].Setting(j)
				switch g.Ops[j].Kind {
				case model.KindMatMul:
					w := p.T[W][j]
					if w.Cols%set.TP != 0 || w.Rows%set.TP != 0 {
						ok = false
					}
				case model.KindAttentionCore:
					if arch.Heads%set.TP != 0 {
						ok = false
					}
				}
			}
		}
		if !ok {
			continue
		}
		checkGPTEquivalence(t, g, arch, cfg)
		checked++
	}
	if checked == 0 {
		t.Fatal("no searched transformer candidate was executable")
	}
	t.Logf("validated %d searched transformer configurations numerically", checked)
}

func TestCausalGPTEquivalence(t *testing.T) {
	// Decoder-style masking through every parallelism mode.
	g, arch := buildTinyGPT(t)
	arch.Causal = true
	checkGPTEquivalenceArch(t, g, arch, gptUniform(t, g, 1, 4, 4, 1, 4))
	checkGPTEquivalenceArch(t, g, arch, gptUniform(t, g, 2, 2, 1, 2, 4))
}

// checkGPTEquivalenceArch is checkGPTEquivalence with an explicit arch
// (e.g. causal variants).
func checkGPTEquivalenceArch(t *testing.T, g *model.Graph, arch Arch, cfg *config.Config) {
	t.Helper()
	x, y := gptData(33)
	ref, err := InitParamsArch(g, arch, 7)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("final weights differ by %g", d)
	}
}
