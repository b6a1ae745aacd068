// Package model defines the operator-level intermediate representation
// that Aceso's configuration search operates on, together with builders
// for the paper's benchmark models (GPT-3, T5, Wide-ResNet) and the
// 1K-layer DeepNet-style transformer used in the scalability study.
//
// All models in the paper are sequential at the granularity Aceso
// configures: a pipeline stage is a contiguous range of operators. A
// Graph is therefore an ordered slice of Ops. Each Op carries analytic
// per-sample costs (FLOPs, parameter count, activation bytes) from
// which the profiler and performance model derive time and memory.
package model

import (
	"fmt"
	"math"

	"aceso/internal/hardware"
)

// OpKind classifies an operator. The kind determines how tensor
// parallelism applies (e.g. layer norms are replicated, matmuls split).
type OpKind int

const (
	KindEmbedding OpKind = iota
	KindLayerNorm
	KindMatMul
	KindAttentionCore // score computation + softmax + context matmul
	KindConv
	KindPool
	KindElementwise
	KindLoss
)

var opKindNames = map[OpKind]string{
	KindEmbedding:     "embedding",
	KindLayerNorm:     "layernorm",
	KindMatMul:        "matmul",
	KindAttentionCore: "attention",
	KindConv:          "conv",
	KindPool:          "pool",
	KindElementwise:   "elementwise",
	KindLoss:          "loss",
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Layout describes how a tensor is distributed across the ranks of a
// tensor-parallel group.
type Layout int

const (
	// Replicated: every tp rank holds the full tensor.
	Replicated Layout = iota
	// Split: the tensor is partitioned across tp ranks.
	Split
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	if l == Split {
		return "split"
	}
	return "replicated"
}

// PartitionDim is one way of sharding an operator's weights under
// tensor parallelism. Following Megatron-LM, a column-parallel matmul
// takes replicated input and produces split output with no collective;
// a row-parallel matmul takes split input and produces replicated
// output at the cost of an all-reduce. Convolutions mirror this with
// output-channel (column-like) and input-channel (row-like) splits.
type PartitionDim struct {
	Name string
	// In is the input layout this dim expects; Out is what it produces.
	In, Out Layout
	// AllReduceOut is true when producing the output requires an
	// all-reduce of the op's activation across the tp group
	// (row-parallel matmul / input-channel conv).
	AllReduceOut bool
}

// Canonical partition dimensions.
var (
	DimColumn     = PartitionDim{Name: "col", In: Replicated, Out: Split}
	DimRow        = PartitionDim{Name: "row", In: Split, Out: Replicated, AllReduceOut: true}
	DimOutChannel = PartitionDim{Name: "out-chan", In: Replicated, Out: Split}
	DimInChannel  = PartitionDim{Name: "in-chan", In: Split, Out: Replicated, AllReduceOut: true}
	// DimHead splits attention heads: both input (QKV, already split by
	// the producing column matmul) and output stay split.
	DimHead = PartitionDim{Name: "head", In: Split, Out: Split}
	// DimNone marks operators that tensor parallelism cannot split;
	// they are computed redundantly on every tp rank (layer norms,
	// element-wise ops on replicated tensors).
	DimNone = PartitionDim{Name: "none", In: Replicated, Out: Replicated}
)

// Op is one operator of a sequential model. All per-sample quantities
// are for a single training sample (one sequence or one image).
type Op struct {
	ID    int
	Name  string
	Kind  OpKind
	Layer int // model layer this op belongs to (−1 for pre/post ops)

	// FwdFLOPs is the forward FLOP count per sample. Backward compute
	// is modelled as BwdFLOPsFactor × FwdFLOPs (2.0 for matmul-like
	// ops: grad wrt input + grad wrt weight).
	FwdFLOPs       float64
	BwdFLOPsFactor float64

	// Params is the number of scalar parameters (unsharded).
	Params float64

	// ActElems is the number of output-activation elements per sample;
	// this is what flows to the next operator and what 1F1B stashes
	// for the backward pass.
	ActElems float64
	// WorkElems is the number of additional intermediate elements the
	// op materializes during forward (e.g. attention probability
	// matrices); saved for backward unless the op is recomputed.
	WorkElems float64

	// Dims are the tensor-parallel sharding options for this op. The
	// first entry is the default (Megatron-LM's choice). Ops that
	// cannot be split carry only DimNone.
	Dims []PartitionDim
}

// Parallelizable reports whether tensor parallelism can shard the op.
func (o *Op) Parallelizable() bool {
	return len(o.Dims) > 0 && o.Dims[0].Name != DimNone.Name
}

// DimIndex returns the index of the dim named name, or -1.
func (o *Op) DimIndex(name string) int {
	for i, d := range o.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Graph is a sequential DNN model: ops execute (and are partitioned
// into pipeline stages) in slice order.
type Graph struct {
	Name      string
	Ops       []Op
	Precision hardware.Precision

	// GlobalBatch is the training mini-batch size (samples/iteration).
	GlobalBatch int
	// SeqLen is informational (0 for vision models).
	SeqLen int
}

// Validate checks structural invariants of the graph.
func (g *Graph) Validate() error {
	if len(g.Ops) == 0 {
		return fmt.Errorf("model %q: no operators", g.Name)
	}
	if g.GlobalBatch <= 0 {
		return fmt.Errorf("model %q: GlobalBatch = %d, want > 0", g.Name, g.GlobalBatch)
	}
	for i := range g.Ops {
		o := &g.Ops[i]
		if o.ID != i {
			return fmt.Errorf("model %q: op %d has ID %d", g.Name, i, o.ID)
		}
		// The explicit non-finite checks matter: NaN compares false
		// against every bound, so a poisoned cost would sail through
		// `< 0` and corrupt every downstream score.
		nonFinite := math.IsNaN(o.FwdFLOPs) || math.IsInf(o.FwdFLOPs, 0) ||
			math.IsNaN(o.Params) || math.IsInf(o.Params, 0) ||
			math.IsNaN(o.ActElems) || math.IsInf(o.ActElems, 0) ||
			math.IsNaN(o.WorkElems) || math.IsInf(o.WorkElems, 0)
		if nonFinite || o.FwdFLOPs < 0 || o.Params < 0 || o.ActElems <= 0 || o.WorkElems < 0 {
			return fmt.Errorf("model %q: op %q has invalid costs", g.Name, o.Name)
		}
		if math.IsNaN(o.BwdFLOPsFactor) || math.IsInf(o.BwdFLOPsFactor, 0) || o.BwdFLOPsFactor < 0 {
			return fmt.Errorf("model %q: op %q has negative or non-finite BwdFLOPsFactor", g.Name, o.Name)
		}
		if len(o.Dims) == 0 {
			return fmt.Errorf("model %q: op %q has no partition dims", g.Name, o.Name)
		}
	}
	return nil
}

// TotalParams returns the total parameter count of the model.
func (g *Graph) TotalParams() float64 {
	var sum float64
	for i := range g.Ops {
		sum += g.Ops[i].Params
	}
	return sum
}

// Layers returns the number of distinct non-negative layer indices.
func (g *Graph) Layers() int {
	max := -1
	for i := range g.Ops {
		if g.Ops[i].Layer > max {
			max = g.Ops[i].Layer
		}
	}
	return max + 1
}

// addOp appends an op, assigning its ID, and returns its index.
func (g *Graph) addOp(o Op) int {
	o.ID = len(g.Ops)
	if o.BwdFLOPsFactor == 0 {
		o.BwdFLOPsFactor = 2
	}
	if len(o.Dims) == 0 {
		o.Dims = []PartitionDim{DimNone}
	}
	g.Ops = append(g.Ops, o)
	return o.ID
}
