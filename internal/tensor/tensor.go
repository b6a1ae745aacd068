// Package tensor is a minimal dense-matrix library backing the numeric
// runtime (internal/runtime), which validates that Aceso's
// reconfiguration primitives are semantic-preserving the same way the
// paper did — by executing parallel configurations and comparing their
// outputs with a serial reference (§4: "we ensured the correctness of
// our implementation by comparing the output with that of the original
// Megatron-LM").
//
// float64 storage keeps parallel/serial comparisons tight: the only
// divergence between executions is floating-point summation order.
//
// Shape mismatches panic rather than return errors. That is a
// deliberate contract: every caller in this repo derives shapes from a
// validated configuration, so a mismatched MatMul or slice is a
// programmer error (a bug in the runtime's sharding arithmetic), not a
// recoverable input condition. Panicking at the exact faulty call site
// is worth more than an error value that every hot loop would have to
// thread upward. User-facing entry points (Search, the runtime
// executors) validate their inputs before any tensor math runs, so
// these panics are unreachable from untrusted input.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major rows×cols matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// shapeCheck panics on mismatched dimensions — shape errors in the
// runtime are programming bugs, not recoverable conditions.
func shapeCheck(ok bool, op string, a, b *Mat) {
	if !ok {
		panic(fmt.Sprintf("tensor: %s shape mismatch: %d×%d vs %d×%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMul returns a·b.
func MatMul(a, b *Mat) *Mat {
	shapeCheck(a.Cols == b.Rows, "matmul", a, b)
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func Transpose(m *Mat) *Mat {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Add returns a+b.
func Add(a, b *Mat) *Mat {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Mat) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale multiplies every element by s, in place, and returns m.
func Scale(m *Mat, s float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddBias adds a 1×cols bias row to every row of m, returning a copy.
func AddBias(m, bias *Mat) *Mat {
	shapeCheck(bias.Rows == 1 && bias.Cols == m.Cols, "addbias", m, bias)
	out := m.Clone()
	for i := 0; i < m.Rows; i++ {
		row := out.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += bias.Data[j]
		}
	}
	return out
}

// ColSumTo accumulates the column sums of m into a 1×cols bias grad.
func ColSumTo(dst, m *Mat) {
	shapeCheck(dst.Rows == 1 && dst.Cols == m.Cols, "colsum", dst, m)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			dst.Data[j] += row[j]
		}
	}
}

// ReLU returns max(x, 0) element-wise.
func ReLU(m *Mat) *Mat {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// ReLUBackward returns dx = dy ⊙ (x > 0).
func ReLUBackward(dy, x *Mat) *Mat {
	shapeCheck(dy.Rows == x.Rows && dy.Cols == x.Cols, "relu-bwd", dy, x)
	out := New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = dy.Data[i]
		}
	}
	return out
}

// RowSlice returns rows [from, to) of m as a copy.
func RowSlice(m *Mat, from, to int) *Mat {
	if from < 0 || to > m.Rows || from > to {
		panic(fmt.Sprintf("tensor: row slice [%d, %d) of %d rows", from, to, m.Rows))
	}
	out := New(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// ColSlice returns columns [from, to) of m as a copy.
func ColSlice(m *Mat, from, to int) *Mat {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("tensor: col slice [%d, %d) of %d cols", from, to, m.Cols))
	}
	out := New(m.Rows, to-from)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], m.Data[i*m.Cols+from:i*m.Cols+to])
	}
	return out
}

// ConcatRows stacks matrices vertically.
func ConcatRows(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	rows := 0
	for _, m := range ms {
		shapeCheck(m.Cols == ms[0].Cols, "concat-rows", m, ms[0])
		rows += m.Rows
	}
	out := New(rows, ms[0].Cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:], m.Data)
		off += len(m.Data)
	}
	return out
}

// ConcatCols stacks matrices horizontally.
func ConcatCols(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	cols := 0
	for _, m := range ms {
		shapeCheck(m.Rows == ms[0].Rows, "concat-cols", m, ms[0])
		cols += m.Cols
	}
	out := New(ms[0].Rows, cols)
	for i := 0; i < out.Rows; i++ {
		off := 0
		for _, m := range ms {
			copy(out.Data[i*cols+off:i*cols+off+m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
			off += m.Cols
		}
	}
	return out
}

// MSE returns the mean-squared-error loss ½·mean((pred−target)²) and
// its gradient with respect to pred.
func MSE(pred, target *Mat) (float64, *Mat) {
	shapeCheck(pred.Rows == target.Rows && pred.Cols == target.Cols, "mse", pred, target)
	n := float64(len(pred.Data))
	grad := New(pred.Rows, pred.Cols)
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d / 2
		grad.Data[i] = d / n
	}
	return loss / n, grad
}

// MaxAbsDiff returns the largest element-wise |a−b|, or +Inf where a
// difference is NaN: a NaN on either side is never close.
func MaxAbsDiff(a, b *Mat) float64 {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "diff", a, b)
	var max float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if !(d <= max) {
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			max = d
		}
	}
	return max
}

// LNCache carries the forward intermediates LayerNormBackward needs.
type LNCache struct {
	XHat   *Mat // normalized input
	InvStd []float64
}

const lnEps = 1e-5

// LayerNorm normalizes each row of x to zero mean and unit variance,
// then applies the per-feature gain and bias (1×cols each).
func LayerNorm(x, gain, bias *Mat) (*Mat, *LNCache) {
	shapeCheck(gain.Rows == 1 && gain.Cols == x.Cols, "layernorm", x, gain)
	shapeCheck(bias.Rows == 1 && bias.Cols == x.Cols, "layernorm", x, bias)
	y := New(x.Rows, x.Cols)
	cache := &LNCache{XHat: New(x.Rows, x.Cols), InvStd: make([]float64, x.Rows)}
	n := float64(x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= n
		var varSum float64
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		invStd := 1 / math.Sqrt(varSum/n+lnEps)
		cache.InvStd[i] = invStd
		for j, v := range row {
			xh := (v - mean) * invStd
			cache.XHat.Data[i*x.Cols+j] = xh
			y.Data[i*x.Cols+j] = xh*gain.Data[j] + bias.Data[j]
		}
	}
	return y, cache
}

// LayerNormBackward propagates gradients through LayerNorm, returning
// dx and accumulating dgain/dbias into the provided 1×cols buffers.
func LayerNormBackward(dy *Mat, cache *LNCache, gain, dgain, dbias *Mat) *Mat {
	dx := New(dy.Rows, dy.Cols)
	n := float64(dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		// dxhat = dy ⊙ gain; dx = invStd·(dxhat − mean(dxhat) − xhat·mean(dxhat⊙xhat)).
		var sumDxh, sumDxhXh float64
		base := i * dy.Cols
		for j := 0; j < dy.Cols; j++ {
			dyv := dy.Data[base+j]
			xh := cache.XHat.Data[base+j]
			dxh := dyv * gain.Data[j]
			sumDxh += dxh
			sumDxhXh += dxh * xh
			dgain.Data[j] += dyv * xh
			dbias.Data[j] += dyv
		}
		invStd := cache.InvStd[i]
		for j := 0; j < dy.Cols; j++ {
			dxh := dy.Data[base+j] * gain.Data[j]
			xh := cache.XHat.Data[base+j]
			dx.Data[base+j] = invStd * (dxh - sumDxh/n - xh*sumDxhXh/n)
		}
	}
	return dx
}
