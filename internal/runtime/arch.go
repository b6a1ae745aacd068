package runtime

import (
	"fmt"
	"math/rand"

	"aceso/internal/model"
	"aceso/internal/tensor"
)

// Arch describes how a transformer graph's activations decompose: the
// numeric runtime lays them out as (samples·Seq) rows of per-token
// feature columns. Heads is the attention head count; Hidden the
// per-token model width. A nil Arch (plain MLP graphs) means one row
// per sample.
type Arch struct {
	Seq, Hidden, Heads int
	// Causal applies decoder-style masking: token i attends only to
	// tokens ≤ i within its sequence.
	Causal bool
}

// rowsPerSample returns how many activation rows one sample spans.
func (p *Params) rowsPerSample() int {
	if p.Arch == nil {
		return 1
	}
	return p.Arch.Seq
}

// widths returns each op's output width (columns) given the model
// input width, validating the chain.
func widths(g *model.Graph, inputWidth int) ([]int, error) {
	out := make([]int, len(g.Ops))
	cur := inputWidth
	for i := range g.Ops {
		op := &g.Ops[i]
		switch op.Kind {
		case model.KindMatMul:
			cur = int(op.ActElems)
		case model.KindAttentionCore:
			if cur%3 != 0 {
				return nil, fmt.Errorf("runtime: attention op %d input width %d not 3·h", i, cur)
			}
			cur /= 3
		case model.KindLayerNorm, model.KindElementwise:
			if int(op.ActElems) != cur {
				return nil, fmt.Errorf("runtime: op %d width %d != chain %d", i, int(op.ActElems), cur)
			}
		default:
			return nil, fmt.Errorf("runtime: unsupported op kind %v", op.Kind)
		}
		out[i] = cur
	}
	return out, nil
}

// InitParamsArch initializes weights for a transformer graph
// (model.TinyGPT): matmul weights take their input width from the
// preceding op, layer norms get per-feature gain/bias, and the
// returned Params carry the Arch so Serial/Parallel interpret rows as
// tokens.
func InitParamsArch(g *model.Graph, arch Arch, seed int64) (*Params, error) {
	ws, err := widths(g, arch.Hidden)
	if err != nil {
		return nil, err
	}
	p := InitParams(g, seed) // square defaults, replaced below
	p.Arch = &arch
	rng := rand.New(rand.NewSource(seed + 1))
	cur := arch.Hidden
	for i := range g.Ops {
		op := &g.Ops[i]
		switch op.Kind {
		case model.KindMatMul:
			in, out := cur, ws[i]
			w := tensor.New(in, out)
			scale := 1 / float64(in)
			for j := range w.Data {
				w.Data[j] = rng.NormFloat64() * scale
			}
			b := tensor.New(1, out)
			for j := range b.Data {
				b.Data[j] = rng.NormFloat64() * 0.01
			}
			p.T[W][i], p.T[B][i] = w, b
		case model.KindLayerNorm:
			gain := tensor.New(1, ws[i])
			for j := range gain.Data {
				gain.Data[j] = 1
			}
			p.T[W][i], p.T[B][i] = gain, tensor.New(1, ws[i])
		}
		cur = ws[i]
	}
	return p, nil
}

// attnForward runs multi-head attention over x: rows are tokens
// grouped in blocks of `seq` per sample; columns are head-major
// [q|k|v] blocks of width 3·dh per head. The context keeps head-major
// column order (dh per head).
func attnForward(x *tensor.Mat, seq, dh int, causal bool) *tensor.Mat {
	heads := x.Cols / (3 * dh)
	out := tensor.New(x.Rows, heads*dh)
	for s0 := 0; s0 < x.Rows; s0 += seq {
		block := tensor.RowSlice(x, s0, s0+seq)
		for hd := 0; hd < heads; hd++ {
			base := hd * 3 * dh
			q := tensor.ColSlice(block, base, base+dh)
			k := tensor.ColSlice(block, base+dh, base+2*dh)
			v := tensor.ColSlice(block, base+2*dh, base+3*dh)
			ctx, _ := tensor.AttentionHead(q, k, v, causal)
			for i := 0; i < seq; i++ {
				copy(out.Data[(s0+i)*out.Cols+hd*dh:(s0+i)*out.Cols+(hd+1)*dh],
					ctx.Data[i*dh:(i+1)*dh])
			}
		}
	}
	return out
}

// attnBackward propagates dctx through attnForward, recomputing the
// attention probabilities from the stashed input.
func attnBackward(dctx, x *tensor.Mat, seq, dh int, causal bool) *tensor.Mat {
	heads := x.Cols / (3 * dh)
	dx := tensor.New(x.Rows, x.Cols)
	for s0 := 0; s0 < x.Rows; s0 += seq {
		block := tensor.RowSlice(x, s0, s0+seq)
		dBlock := tensor.RowSlice(dctx, s0, s0+seq)
		for hd := 0; hd < heads; hd++ {
			base := hd * 3 * dh
			q := tensor.ColSlice(block, base, base+dh)
			k := tensor.ColSlice(block, base+dh, base+2*dh)
			v := tensor.ColSlice(block, base+2*dh, base+3*dh)
			_, probs := tensor.AttentionHead(q, k, v, causal)
			dHead := tensor.ColSlice(dBlock, hd*dh, (hd+1)*dh)
			dq, dk, dv := tensor.AttentionHeadBackward(dHead, q, k, v, probs)
			for i := 0; i < seq; i++ {
				row := dx.Data[(s0+i)*dx.Cols:]
				copy(row[base:base+dh], dq.Data[i*dh:(i+1)*dh])
				copy(row[base+dh:base+2*dh], dk.Data[i*dh:(i+1)*dh])
				copy(row[base+2*dh:base+3*dh], dv.Data[i*dh:(i+1)*dh])
			}
		}
	}
	return dx
}
