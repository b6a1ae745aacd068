package model

import "aceso/internal/hardware"

// DimPass marks layout-polymorphic operators (activations flow through
// element-wise): the op adopts its input layout and benefits from
// tensor parallelism only when that layout is Split. The performance
// model special-cases this name.
var DimPass = PartitionDim{Name: "pass", In: Split, Out: Split}

// transformerSpec bundles the dimensions shared by the transformer
// builders (GPT-3, T5, DeepTransformer).
type transformerSpec struct {
	Hidden int
	Heads  int
	FFN    int // feed-forward inner dimension
	Vocab  int
}

// addAttention appends the self-attention ops of one transformer layer
// operating on sequences of length seq: LN → QKV (column-parallel) →
// attention core (head-parallel) → output projection (row-parallel).
func (g *Graph) addAttention(layer, seq int, sp transformerSpec, prefix string) {
	h := float64(sp.Hidden)
	s := float64(seq)
	g.addOp(Op{
		Name: prefix + "ln1", Kind: KindLayerNorm, Layer: layer,
		FwdFLOPs: 5 * s * h, Params: 2 * h,
		ActElems: s * h, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimNone},
	})
	g.addOp(Op{
		Name: prefix + "qkv", Kind: KindMatMul, Layer: layer,
		FwdFLOPs: 6 * s * h * h, Params: 3*h*h + 3*h,
		ActElems: 3 * s * h,
		Dims:     []PartitionDim{DimColumn, DimRow},
	})
	g.addOp(Op{
		Name: prefix + "attn", Kind: KindAttentionCore, Layer: layer,
		FwdFLOPs: 4 * s * s * h,
		ActElems: s * h, WorkElems: float64(sp.Heads) * s * s,
		Dims: []PartitionDim{DimHead},
	})
	g.addOp(Op{
		Name: prefix + "attn-out", Kind: KindMatMul, Layer: layer,
		FwdFLOPs: 2 * s * h * h, Params: h*h + h,
		ActElems: s * h,
		Dims:     []PartitionDim{DimRow, DimColumn},
	})
}

// addMLP appends the feed-forward ops of one transformer layer:
// LN → H→F (column-parallel) → GeLU → F→H (row-parallel).
func (g *Graph) addMLP(layer, seq int, sp transformerSpec, prefix string) {
	h := float64(sp.Hidden)
	f := float64(sp.FFN)
	s := float64(seq)
	g.addOp(Op{
		Name: prefix + "ln2", Kind: KindLayerNorm, Layer: layer,
		FwdFLOPs: 5 * s * h, Params: 2 * h,
		ActElems: s * h, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimNone},
	})
	g.addOp(Op{
		Name: prefix + "mlp1", Kind: KindMatMul, Layer: layer,
		FwdFLOPs: 2 * s * h * f, Params: h*f + f,
		ActElems: s * f,
		Dims:     []PartitionDim{DimColumn, DimRow},
	})
	g.addOp(Op{
		Name: prefix + "gelu", Kind: KindElementwise, Layer: layer,
		FwdFLOPs: 8 * s * f,
		ActElems: s * f, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimPass},
	})
	g.addOp(Op{
		Name: prefix + "mlp2", Kind: KindMatMul, Layer: layer,
		FwdFLOPs: 2 * s * h * f, Params: f*h + h,
		ActElems: s * h,
		Dims:     []PartitionDim{DimRow, DimColumn},
	})
}

// addDecoderLayer appends a GPT-style decoder layer (8 ops).
func (g *Graph) addDecoderLayer(layer, seq int, sp transformerSpec) {
	g.addAttention(layer, seq, sp, "")
	g.addMLP(layer, seq, sp, "")
}

// addEmbedding appends the (vocab-parallel) token+position embedding.
func (g *Graph) addEmbedding(seq int, sp transformerSpec) {
	h := float64(sp.Hidden)
	s := float64(seq)
	g.addOp(Op{
		Name: "embedding", Kind: KindEmbedding, Layer: -1,
		FwdFLOPs: 2 * s * h, // lookup + position add
		Params:   float64(sp.Vocab)*h + s*h,
		ActElems: s * h, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{
			// Vocab-parallel embedding: each rank looks up its vocab
			// shard; outputs are summed with an all-reduce.
			{Name: "vocab", In: Replicated, Out: Replicated, AllReduceOut: true},
		},
	})
}

// addLMHead appends the final LN, the (weight-tied, column-parallel)
// LM projection, and the loss.
func (g *Graph) addLMHead(seq int, sp transformerSpec) {
	h := float64(sp.Hidden)
	s := float64(seq)
	v := float64(sp.Vocab)
	g.addOp(Op{
		Name: "final-ln", Kind: KindLayerNorm, Layer: -1,
		FwdFLOPs: 5 * s * h, Params: 2 * h,
		ActElems: s * h, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimNone},
	})
	g.addOp(Op{
		Name: "lm-head", Kind: KindMatMul, Layer: -1,
		FwdFLOPs: 2 * s * h * v,
		Params:   0, // weight-tied with the embedding
		ActElems: s * v,
		Dims:     []PartitionDim{DimColumn},
	})
	g.addOp(Op{
		Name: "loss", Kind: KindLoss, Layer: -1,
		FwdFLOPs: 5 * s * v,
		ActElems: s, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimPass},
	})
}

// GPT3Sizes lists the parameter-size labels from Table 2.
var GPT3Sizes = []string{"350M", "1.3B", "2.6B", "6.7B", "13B"}

type gptConfig struct {
	layers, hidden, heads int
}

var gptConfigs = map[string]gptConfig{
	"350M": {24, 1024, 16},
	"1.3B": {24, 2048, 16},
	"2.6B": {32, 2560, 32},
	"6.7B": {32, 4096, 32},
	"13B":  {40, 5120, 40},
}

// GPT3 builds the GPT-3 model of the given size label (Table 2:
// FP16, batch 1024, sequence length 2048).
func GPT3(size string) (*Graph, error) {
	cfg, ok := gptConfigs[size]
	if !ok {
		return nil, &UnknownSizeError{"GPT-3", size, GPT3Sizes}
	}
	const seq = 2048
	sp := transformerSpec{Hidden: cfg.hidden, Heads: cfg.heads, FFN: 4 * cfg.hidden, Vocab: 51200}
	g := &Graph{
		Name:        "gpt3-" + size,
		Precision:   hardware.FP16,
		GlobalBatch: 1024,
		SeqLen:      seq,
	}
	g.addEmbedding(seq, sp)
	for l := 0; l < cfg.layers; l++ {
		g.addDecoderLayer(l, seq, sp)
	}
	g.addLMHead(seq, sp)
	return g, nil
}

// DeepTransformer builds the DeepNet-style model used in the
// 1K-layer scalability study (Exp#3): a stack of `layers` transformer
// layers with the hyper-parameters from Wang et al. 2022 (hidden 1024)
// on sequence length 1024.
func DeepTransformer(layers int) (*Graph, error) {
	if layers <= 0 {
		return nil, errInvalidArg("DeepTransformer", "layers", layers)
	}
	const seq = 1024
	sp := transformerSpec{Hidden: 1024, Heads: 16, FFN: 4096, Vocab: 32768}
	g := &Graph{
		Name:        "deep-" + itoa(layers),
		Precision:   hardware.FP16,
		GlobalBatch: 256,
		SeqLen:      seq,
	}
	g.addEmbedding(seq, sp)
	for l := 0; l < layers; l++ {
		g.addDecoderLayer(l, seq, sp)
	}
	g.addLMHead(seq, sp)
	return g, nil
}
