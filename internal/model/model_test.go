package model

import (
	"strings"
	"testing"
)

func TestGPT3Sizes(t *testing.T) {
	// Total params should land near the size label (within 15%:
	// labels are nominal, e.g. "350M" is 355M in the real model).
	wants := map[string]float64{
		"350M": 0.35e9, "1.3B": 1.3e9, "2.6B": 2.6e9, "6.7B": 6.7e9, "13B": 13e9,
	}
	for size, want := range wants {
		g, err := GPT3(size)
		if err != nil {
			t.Fatalf("GPT3(%q): %v", size, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("GPT3(%q).Validate(): %v", size, err)
		}
		got := g.TotalParams()
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("GPT3(%q) params = %.3g, want ≈ %.3g", size, got, want)
		}
		if g.GlobalBatch != 1024 || g.SeqLen != 2048 {
			t.Errorf("GPT3(%q): batch=%d seq=%d, want 1024/2048", size, g.GlobalBatch, g.SeqLen)
		}
	}
}

func TestGPT3UnknownSize(t *testing.T) {
	if _, err := GPT3("9000B"); err == nil {
		t.Fatal("GPT3(unknown) should fail")
	}
}

func TestGPT3Structure(t *testing.T) {
	g, err := GPT3("1.3B")
	if err != nil {
		t.Fatal(err)
	}
	// embedding + 24 layers × 8 ops + final-ln + lm-head + loss.
	if want := 1 + 24*8 + 3; len(g.Ops) != want {
		t.Errorf("op count = %d, want %d", len(g.Ops), want)
	}
	if g.Layers() != 24 {
		t.Errorf("Layers() = %d, want 24", g.Layers())
	}
	if g.Ops[0].Kind != KindEmbedding {
		t.Errorf("first op kind = %v, want embedding", g.Ops[0].Kind)
	}
	if g.Ops[len(g.Ops)-1].Kind != KindLoss {
		t.Errorf("last op kind = %v, want loss", g.Ops[len(g.Ops)-1].Kind)
	}
}

func TestTransformerLayerAllReduceCount(t *testing.T) {
	// Megatron-LM shards a transformer layer so that exactly two ops
	// per layer all-reduce their output in the default dims: attn-out
	// and mlp2 (both row-parallel).
	g, err := GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	perLayer := map[int]int{}
	for i := range g.Ops {
		o := &g.Ops[i]
		if o.Layer >= 0 && o.Dims[0].AllReduceOut {
			perLayer[o.Layer]++
		}
	}
	for l, n := range perLayer {
		if n != 2 {
			t.Errorf("layer %d has %d all-reducing ops, want 2", l, n)
		}
	}
	if len(perLayer) != 24 {
		t.Errorf("layers with all-reduce = %d, want 24", len(perLayer))
	}
}

func TestT5Sizes(t *testing.T) {
	wants := map[string]float64{
		"770M": 0.77e9, "3B": 3e9, "6B": 6e9, "11B": 11e9, "22B": 22e9,
	}
	for size, want := range wants {
		g, err := T5(size)
		if err != nil {
			t.Fatalf("T5(%q): %v", size, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("T5(%q).Validate(): %v", size, err)
		}
		got := g.TotalParams()
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("T5(%q) params = %.3g, want ≈ %.3g", size, got, want)
		}
	}
	if _, err := T5("nope"); err == nil {
		t.Fatal("T5(unknown) should fail")
	}
}

func TestT5Heterogeneity(t *testing.T) {
	// The decoder processes 512-token sequences vs the encoder's 2048,
	// so per-layer forward FLOPs must differ between halves — that
	// imbalance is what the paper's T5 experiments stress.
	g, err := T5("770M")
	if err != nil {
		t.Fatal(err)
	}
	var encFLOPs, decFLOPs float64
	for i := range g.Ops {
		o := &g.Ops[i]
		switch {
		case strings.HasPrefix(o.Name, "enc-"):
			encFLOPs += o.FwdFLOPs
		case strings.HasPrefix(o.Name, "dec-"):
			decFLOPs += o.FwdFLOPs
		}
	}
	if encFLOPs <= decFLOPs {
		t.Errorf("encoder FLOPs (%.3g) should exceed decoder FLOPs (%.3g)", encFLOPs, decFLOPs)
	}
	// Decoder layers must contain cross-attention ops.
	found := false
	for i := range g.Ops {
		if strings.Contains(g.Ops[i].Name, "xattn") {
			found = true
			break
		}
	}
	if !found {
		t.Error("decoder lacks cross-attention ops")
	}
}

func TestWideResNetSizes(t *testing.T) {
	for size, want := range wrnTargets {
		g, err := WideResNet(size)
		if err != nil {
			t.Fatalf("WideResNet(%q): %v", size, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("WideResNet(%q).Validate(): %v", size, err)
		}
		got := g.TotalParams()
		// Channel rounding makes the match looser than transformers.
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("WideResNet(%q) params = %.3g, want ≈ %.3g", size, got, want)
		}
		if g.GlobalBatch != 1536 {
			t.Errorf("WideResNet(%q) batch = %d, want 1536", size, g.GlobalBatch)
		}
	}
	if _, err := WideResNet("huge"); err == nil {
		t.Fatal("WideResNet(unknown) should fail")
	}
}

func TestWideResNetConvDims(t *testing.T) {
	g, err := WideResNet("0.5B")
	if err != nil {
		t.Fatal(err)
	}
	convs := 0
	for i := range g.Ops {
		o := &g.Ops[i]
		if o.Kind != KindConv {
			continue
		}
		convs++
		if o.DimIndex("out-chan") != 0 {
			t.Fatalf("conv %q: default dim = %q, want out-chan", o.Name, o.Dims[0].Name)
		}
		if o.DimIndex("in-chan") < 0 {
			t.Fatalf("conv %q lacks in-chan option", o.Name)
		}
	}
	// stem + 16 blocks × 3 convs + 4 downsamples = 53.
	if convs != 53 {
		t.Errorf("conv count = %d, want 53", convs)
	}
}

func TestDeepTransformer(t *testing.T) {
	for _, layers := range []int{8, 64, 1024} {
		g, err := DeepTransformer(layers)
		if err != nil {
			t.Fatalf("DeepTransformer(%d): %v", layers, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("DeepTransformer(%d).Validate(): %v", layers, err)
		}
		if g.Layers() != layers {
			t.Errorf("Layers() = %d, want %d", g.Layers(), layers)
		}
	}
	if _, err := DeepTransformer(0); err == nil {
		t.Fatal("DeepTransformer(0) should fail")
	}
}

func TestUniformAndSkewed(t *testing.T) {
	u := Uniform(10, 1e9, 1e6, 1e5, 64)
	if err := u.Validate(); err != nil {
		t.Fatalf("Uniform.Validate(): %v", err)
	}
	var flops float64
	for i := range u.Ops {
		flops += u.Ops[i].FwdFLOPs
	}
	if want := 1e10; flops != want {
		t.Errorf("Uniform FLOPs = %v, want %v", flops, want)
	}
	s := Skewed(10, 1e9, 1e6, 1e5, 0.5, 64)
	if err := s.Validate(); err != nil {
		t.Fatalf("Skewed.Validate(): %v", err)
	}
	if s.Ops[9].FwdFLOPs <= s.Ops[0].FwdFLOPs {
		t.Error("Skewed: last op should be heavier than first")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph { return Uniform(4, 1e9, 1e6, 1e5, 64) }

	g := fresh()
	g.Ops[2].ID = 7
	if err := g.Validate(); err == nil {
		t.Error("bad ID not caught")
	}

	g = fresh()
	g.Ops[1].ActElems = 0
	if err := g.Validate(); err == nil {
		t.Error("zero ActElems not caught")
	}

	g = fresh()
	g.Ops[0].Dims = nil
	if err := g.Validate(); err == nil {
		t.Error("missing dims not caught")
	}

	g = fresh()
	g.GlobalBatch = 0
	if err := g.Validate(); err == nil {
		t.Error("zero batch not caught")
	}

	g = &Graph{Name: "empty", GlobalBatch: 1}
	if err := g.Validate(); err == nil {
		t.Error("empty graph not caught")
	}
}

func TestOpHelpers(t *testing.T) {
	g, err := GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	var ln, mm *Op
	for i := range g.Ops {
		switch g.Ops[i].Kind {
		case KindLayerNorm:
			if ln == nil {
				ln = &g.Ops[i]
			}
		case KindMatMul:
			if mm == nil {
				mm = &g.Ops[i]
			}
		}
	}
	if ln == nil || mm == nil {
		t.Fatal("missing layernorm or matmul op")
	}
	if ln.Parallelizable() {
		t.Error("layernorm should not be parallelizable")
	}
	if !mm.Parallelizable() {
		t.Error("matmul should be parallelizable")
	}
	if mm.DimIndex("row") < 0 || mm.DimIndex("col") < 0 {
		t.Error("matmul should offer row and col dims")
	}
	if mm.DimIndex("bogus") != -1 {
		t.Error("DimIndex(bogus) should be -1")
	}
}

func TestKindAndLayoutStrings(t *testing.T) {
	if KindMatMul.String() != "matmul" || KindConv.String() != "conv" {
		t.Error("OpKind.String mismatch")
	}
	if OpKind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
	if Split.String() != "split" || Replicated.String() != "replicated" {
		t.Error("Layout.String mismatch")
	}
}

func TestLlamaSizes(t *testing.T) {
	wants := map[string]float64{"8B": 8e9, "70B": 70e9}
	for size, want := range wants {
		g, err := Llama(size)
		if err != nil {
			t.Fatalf("Llama(%q): %v", size, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Llama(%q).Validate(): %v", size, err)
		}
		got := g.TotalParams()
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("Llama(%q) params = %.3g, want ≈ %.3g", size, got, want)
		}
	}
	if _, err := Llama("1T"); err == nil {
		t.Fatal("Llama(unknown) should fail")
	}
}

func TestLlamaGQAShrinksKV(t *testing.T) {
	// The GQA qkv projection must be smaller than a full 3h² one.
	g, err := Llama("8B")
	if err != nil {
		t.Fatal(err)
	}
	var qkv *Op
	for i := range g.Ops {
		if g.Ops[i].Name == "qkv" {
			qkv = &g.Ops[i]
			break
		}
	}
	if qkv == nil {
		t.Fatal("no qkv op")
	}
	h := 4096.0
	if qkv.Params >= 3*h*h {
		t.Errorf("GQA qkv params %.3g should be below full 3h² %.3g", qkv.Params, 3*h*h)
	}
}
