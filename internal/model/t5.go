package model

import (
	"math"

	"aceso/internal/hardware"
)

// T5Sizes lists the parameter-size labels from Table 2.
var T5Sizes = []string{"770M", "3B", "6B", "11B", "22B"}

type t5Config struct {
	encLayers, decLayers, hidden, heads int
	targetParams                        float64
}

var t5Configs = map[string]t5Config{
	"770M": {24, 24, 1024, 16, 0.77e9},
	"3B":   {24, 24, 1024, 32, 3e9},
	"6B":   {24, 24, 2048, 32, 6e9},
	"11B":  {24, 24, 2048, 64, 11e9},
	"22B":  {24, 24, 4096, 64, 22e9},
}

// T5 builds the T5 encoder-decoder model of the given size label
// (Table 2: FP16, batch 1024, sequence length 2048 for encoders and
// 512 for decoders). Sizes are hit by solving the feed-forward width
// for the target parameter count at fixed depth/hidden, preserving the
// heterogeneous, imbalanced structure the paper highlights.
func T5(size string) (*Graph, error) {
	cfg, ok := t5Configs[size]
	if !ok {
		return nil, &UnknownSizeError{"T5", size, T5Sizes}
	}
	const (
		encSeq = 2048
		decSeq = 512
		vocab  = 32128
	)
	h := float64(cfg.hidden)
	// Solve FFN width f from:
	//   target ≈ V·h + encL·(4h² + 2hf) + decL·(8h² + 2hf)
	fixed := float64(vocab)*h +
		float64(cfg.encLayers)*4*h*h +
		float64(cfg.decLayers)*8*h*h
	f := (cfg.targetParams - fixed) / (2 * h * float64(cfg.encLayers+cfg.decLayers))
	ffn := int(math.Round(f/64) * 64)
	if ffn < 4*cfg.hidden {
		ffn = 4 * cfg.hidden
	}
	sp := transformerSpec{Hidden: cfg.hidden, Heads: cfg.heads, FFN: ffn, Vocab: vocab}

	g := &Graph{
		Name:        "t5-" + size,
		Precision:   hardware.FP16,
		GlobalBatch: 1024,
		SeqLen:      encSeq,
	}
	g.addEmbedding(encSeq, sp)
	layer := 0
	for l := 0; l < cfg.encLayers; l++ {
		g.addAttention(layer, encSeq, sp, "enc-")
		g.addMLP(layer, encSeq, sp, "enc-")
		layer++
	}
	for l := 0; l < cfg.decLayers; l++ {
		g.addAttention(layer, decSeq, sp, "dec-")
		g.addCrossAttention(layer, decSeq, encSeq, sp)
		g.addMLP(layer, decSeq, sp, "dec-")
		layer++
	}
	g.addLMHead(decSeq, sp)
	return g, nil
}

// addCrossAttention appends decoder cross-attention over the encoder
// output: LN → Q (from decoder, column) + KV (from encoder memory,
// column) → cross attention core → output projection (row).
func (g *Graph) addCrossAttention(layer, qSeq, kvSeq int, sp transformerSpec) {
	h := float64(sp.Hidden)
	sq := float64(qSeq)
	skv := float64(kvSeq)
	g.addOp(Op{
		Name: "dec-xln", Kind: KindLayerNorm, Layer: layer,
		FwdFLOPs: 5 * sq * h, Params: 2 * h,
		ActElems: sq * h, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimNone},
	})
	g.addOp(Op{
		Name: "dec-xq", Kind: KindMatMul, Layer: layer,
		FwdFLOPs: 2 * sq * h * h, Params: h * h,
		ActElems: sq * h,
		Dims:     []PartitionDim{DimColumn, DimRow},
	})
	g.addOp(Op{
		Name: "dec-xkv", Kind: KindMatMul, Layer: layer,
		FwdFLOPs: 4 * skv * h * h, Params: 2 * h * h,
		ActElems: 2 * skv * h,
		Dims:     []PartitionDim{DimColumn, DimRow},
	})
	g.addOp(Op{
		Name: "dec-xattn", Kind: KindAttentionCore, Layer: layer,
		FwdFLOPs: 4 * sq * skv * h,
		ActElems: sq * h, WorkElems: float64(sp.Heads) * sq * skv,
		Dims: []PartitionDim{DimHead},
	})
	g.addOp(Op{
		Name: "dec-xout", Kind: KindMatMul, Layer: layer,
		FwdFLOPs: 2 * sq * h * h, Params: h * h,
		ActElems: sq * h,
		Dims:     []PartitionDim{DimRow, DimColumn},
	})
}
