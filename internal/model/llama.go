package model

import "aceso/internal/hardware"

// LlamaSizes lists the supported Llama-3-style size labels. Llama is
// not part of the paper's evaluation; it demonstrates that the
// operator IR and the search generalize to post-2022 architectures
// (grouped-query attention, SwiGLU feed-forward, RMSNorm).
var LlamaSizes = []string{"8B", "70B"}

type llamaConfig struct {
	layers, hidden, heads, kvHeads, ffn, vocab int
}

var llamaConfigs = map[string]llamaConfig{
	"8B":  {32, 4096, 32, 8, 14336, 128256},
	"70B": {80, 8192, 64, 8, 28672, 128256},
}

// Llama builds a Llama-3-style decoder stack ("8B" or "70B"):
// sequence length 4096, batch 512, mixed precision.
func Llama(size string) (*Graph, error) {
	cfg, ok := llamaConfigs[size]
	if !ok {
		return nil, &UnknownSizeError{"Llama", size, LlamaSizes}
	}
	const seq = 4096
	g := &Graph{
		Name:        "llama-" + size,
		Precision:   hardware.FP16,
		GlobalBatch: 512,
		SeqLen:      seq,
	}
	h := float64(cfg.hidden)
	f := float64(cfg.ffn)
	s := float64(seq)
	v := float64(cfg.vocab)
	// Grouped-query attention: K/V projections produce only
	// kvHeads/heads of the hidden width.
	kvFrac := float64(cfg.kvHeads) / float64(cfg.heads)

	g.addOp(Op{
		Name: "embedding", Kind: KindEmbedding, Layer: -1,
		FwdFLOPs: 2 * s * h, Params: v * h,
		ActElems: s * h, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{{Name: "vocab", In: Replicated, Out: Replicated, AllReduceOut: true}},
	})
	for l := 0; l < cfg.layers; l++ {
		g.addOp(Op{
			Name: "rms1", Kind: KindLayerNorm, Layer: l,
			FwdFLOPs: 4 * s * h, Params: h,
			ActElems: s * h, BwdFLOPsFactor: 1,
			Dims: []PartitionDim{DimNone},
		})
		qkvWidth := h * (1 + 2*kvFrac)
		g.addOp(Op{
			Name: "qkv", Kind: KindMatMul, Layer: l,
			FwdFLOPs: 2 * s * h * qkvWidth, Params: h * qkvWidth,
			ActElems: s * qkvWidth,
			Dims:     []PartitionDim{DimColumn, DimRow},
		})
		g.addOp(Op{
			Name: "attn", Kind: KindAttentionCore, Layer: l,
			FwdFLOPs: 4 * s * s * h,
			ActElems: s * h, WorkElems: float64(cfg.heads) * s * s,
			Dims: []PartitionDim{DimHead},
		})
		g.addOp(Op{
			Name: "attn-out", Kind: KindMatMul, Layer: l,
			FwdFLOPs: 2 * s * h * h, Params: h * h,
			ActElems: s * h,
			Dims:     []PartitionDim{DimRow, DimColumn},
		})
		g.addOp(Op{
			Name: "rms2", Kind: KindLayerNorm, Layer: l,
			FwdFLOPs: 4 * s * h, Params: h,
			ActElems: s * h, BwdFLOPsFactor: 1,
			Dims: []PartitionDim{DimNone},
		})
		// SwiGLU: gate and up projections (column-parallel), an
		// element-wise SiLU·mul, and the down projection (row-parallel).
		g.addOp(Op{
			Name: "gate-up", Kind: KindMatMul, Layer: l,
			FwdFLOPs: 4 * s * h * f, Params: 2 * h * f,
			ActElems: 2 * s * f,
			Dims:     []PartitionDim{DimColumn, DimRow},
		})
		g.addOp(Op{
			Name: "silu-mul", Kind: KindElementwise, Layer: l,
			FwdFLOPs: 10 * s * f,
			ActElems: s * f, BwdFLOPsFactor: 1,
			Dims: []PartitionDim{DimPass},
		})
		g.addOp(Op{
			Name: "down", Kind: KindMatMul, Layer: l,
			FwdFLOPs: 2 * s * f * h, Params: f * h,
			ActElems: s * h,
			Dims:     []PartitionDim{DimRow, DimColumn},
		})
	}
	g.addLMHead(seq, transformerSpec{Hidden: cfg.hidden, Heads: cfg.heads, FFN: cfg.ffn, Vocab: cfg.vocab})
	return g, nil
}
