// Package runtime numerically executes parallel-training
// configurations, reproducing the paper's correctness methodology:
// §4 validates Aceso's implementation "by comparing the output with
// that of the original Megatron-LM". Here, any valid configuration of
// an MLP graph (model.MLP) — pipeline stages as concurrent goroutines
// exchanging activations through the channel-based collectives of
// internal/comm, column/row-parallel linear layers, data-parallel row
// sharding with gradient summation, microbatching and recomputation —
// is executed end to end and compared against a serial reference.
// Because every reconfiguration primitive is semantic-preserving, the
// parallel execution must converge identically (up to floating-point
// summation order) for every configuration the search visits.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"aceso/internal/comm"
	"aceso/internal/config"
	"aceso/internal/model"
	"aceso/internal/tensor"
)

// UnsupportedOpError reports an operator kind the numeric runtime
// cannot execute. It is returned (never panicked) so that a caller
// handing the runtime an exotic graph gets a diagnosable failure
// instead of a crashed process.
type UnsupportedOpError struct {
	Op   int // operator index in the graph
	Kind model.OpKind
}

// Error implements the error interface.
func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("runtime: op %d has unsupported kind %v", e.Op, e.Kind)
}

// Optimizer selects the update rule applied after each iteration.
type Optimizer int

const (
	// SGD applies plain stochastic gradient descent.
	SGD Optimizer = iota
	// Adam applies Adam (Kingma & Ba) with β1 = 0.9, β2 = 0.999 —
	// the optimizer the paper's workloads actually train with, and
	// the reason optimizer state dominates Eq. 1's M_opt term.
	Adam
)

// Adam hyper-parameters.
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// TensorKind indexes an operator's tensors in Params.T: the weight (a
// layer norm's gain), the bias, and Adam's first and second moments of
// each. The numbering is the one checkpoints record.
type TensorKind uint8

// The tensor kinds of the training state.
const (
	W TensorKind = iota
	B
	MW
	VW
	MB
	VB
	NumTensorKinds
)

// kinds names each kind and the parameter it belongs to: a moment is
// cut like its parameter.
var kinds = [NumTensorKinds]struct {
	name  string
	param TensorKind
}{W: {"W", W}, B: {"B", B}, MW: {"MW", W}, VW: {"VW", W}, MB: {"MB", B}, VB: {"VB", B}}

// Layout lists the kinds in the order a checkpoint lays out an
// operator's shards on a rank: each parameter, then its two moments.
var Layout = [NumTensorKinds]TensorKind{W, MW, VW, B, MB, VB}

// String implements fmt.Stringer.
func (k TensorKind) String() string {
	if k < NumTensorKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("TensorKind(%d)", int(k))
}

// Holds reports whether a state trained with o keeps a tensor of kind
// k for every operator that has parameters: W and B always, their
// moments under Adam.
func (o Optimizer) Holds(k TensorKind) bool { return o == Adam || kinds[k].param == k }

// MissingTensorError reports an operator that has parameters but lacks
// a tensor its optimizer keeps.
type MissingTensorError struct {
	Op   int
	Kind TensorKind
}

// Error implements the error interface.
func (e *MissingTensorError) Error() string {
	return fmt.Sprintf("runtime: op %d lacks its %v tensor", e.Op, e.Kind)
}

// Params holds the full training state of an executable graph: per
// tensor kind, a map from op ID to that op's tensor — a weight matrix
// and a 1×out bias (gain/bias for layer norms), and under Adam their
// first/second moments (lazily sized by EnsureOptState before
// training; stages update disjoint op IDs, so no locking is needed).
// Arch is non-nil for transformer graphs (see InitParamsArch). Opt
// selects the update rule. Step counts completed optimizer steps —
// Adam's bias correction depends on it, so a checkpoint that loses
// Step or the moments silently changes the training trajectory on
// resume. Seed records the RNG cursor the weights were drawn from
// (checkpoint provenance).
type Params struct {
	T    [NumTensorKinds]map[int]*tensor.Mat
	Arch *Arch
	Opt  Optimizer

	// Step is the number of optimizer steps already applied. Serial
	// and Parallel resume Adam's bias correction from Step+1 and
	// advance it by the iterations they complete.
	Step int

	// Seed is the RNG cursor the parameters were initialized from.
	Seed int64
}

// EnsureOptState sizes the Adam moment buffers. It must run before
// concurrent stage goroutines start (map writes are not synchronized).
// Exported so the checkpoint layer can shard a not-yet-trained Adam
// state deterministically.
func (p *Params) EnsureOptState() {
	if p.Opt != Adam || p.T[MW] != nil {
		return
	}
	for k := MW; k < NumTensorKinds; k++ {
		p.T[k] = make(map[int]*tensor.Mat, len(p.T[W]))
		for id, m := range p.T[kinds[k].param] {
			p.T[k][id] = tensor.New(m.Rows, m.Cols)
		}
	}
}

// ShapeMismatchError reports a tensor shaped unlike its operator's
// weight: a moment has its parameter's shape, a bias is 1×W.Cols.
type ShapeMismatchError struct {
	Op, Rows, Cols, WantRows, WantCols int
	Kind                               TensorKind
}

// Error implements the error interface.
func (e *ShapeMismatchError) Error() string {
	return fmt.Sprintf("runtime: op %d %v is %d×%d, want %d×%d", e.Op, e.Kind, e.Rows, e.Cols, e.WantRows, e.WantCols)
}

// Validate returns, for the lowest op ID whose tensors are wrong, a
// *MissingTensorError for a kind its optimizer holds and it lacks, or a
// *ShapeMismatchError for a tensor shaped unlike its weight.
func (p *Params) Validate() error {
	var ids []int
	for k := range p.T {
		for id := range p.T[k] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		for k := W; k < NumTensorKinds; k++ {
			if p.Opt.Holds(k) && p.T[k][id] == nil {
				return &MissingTensorError{Op: id, Kind: k}
			}
		}
		for k, w := B, p.T[W][id]; k < NumTensorKinds; k++ {
			rows := w.Rows
			if kinds[k].param == B {
				rows = 1
			}
			if m := p.T[k][id]; m != nil && (m.Rows != rows || m.Cols != w.Cols) {
				return &ShapeMismatchError{Op: id, Kind: k, Rows: m.Rows, Cols: m.Cols, WantRows: rows, WantCols: w.Cols}
			}
		}
	}
	return nil
}

// InitParams initializes deterministic weights for every linear op.
func InitParams(g *model.Graph, seed int64) *Params {
	rng := rand.New(rand.NewSource(seed))
	p := &Params{Seed: seed}
	p.T[W], p.T[B] = map[int]*tensor.Mat{}, map[int]*tensor.Mat{}
	for i := range g.Ops {
		op := &g.Ops[i]
		dim := int(op.ActElems)
		switch op.Kind {
		case model.KindMatMul:
			w := tensor.New(dim, dim)
			scale := 1 / float64(dim)
			for j := range w.Data {
				w.Data[j] = rng.NormFloat64() * scale
			}
			b := tensor.New(1, dim)
			for j := range b.Data {
				b.Data[j] = rng.NormFloat64() * 0.01
			}
			p.T[W][i] = w
			p.T[B][i] = b
		case model.KindLayerNorm:
			// Gain initialized to ones, bias to zeros, as frameworks do.
			gain := tensor.New(1, dim)
			for j := range gain.Data {
				gain.Data[j] = 1
			}
			p.T[W][i] = gain
			p.T[B][i] = tensor.New(1, dim)
		}
	}
	return p
}

// Clone deep-copies the full training state: every tensor of every
// kind and the step counter. A shallow alias of the moment maps here
// would let a "snapshot" keep training along with the live parameters,
// silently corrupting every checkpoint built from it.
func (p *Params) Clone() *Params {
	q := &Params{Arch: p.Arch, Opt: p.Opt, Step: p.Step, Seed: p.Seed}
	for k, m := range p.T {
		if m == nil {
			continue
		}
		q.T[k] = make(map[int]*tensor.Mat, len(m))
		for id, v := range m {
			q.T[k][id] = v.Clone()
		}
	}
	return q
}

// MaxDiff returns the largest element-wise difference between two
// complete training states: weights, biases and Adam moments. A step
// mismatch, a tensor present on one side only, a shape mismatch or a
// NaN difference is an unbounded divergence (+Inf): the two states
// cannot produce the same continuation, no matter how close the rest
// looks.
func (p *Params) MaxDiff(q *Params) float64 {
	if p.Step != q.Step {
		return math.Inf(1)
	}
	var max float64
	for k := range p.T {
		if len(p.T[k]) != len(q.T[k]) {
			return math.Inf(1)
		}
		for id, a := range p.T[k] {
			b := q.T[k][id]
			if b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
				return math.Inf(1)
			}
			if d := tensor.MaxAbsDiff(a, b); d > max {
				max = d
			}
		}
	}
	return max
}

// Slicing is how an operator's tensors are cut across its
// tensor-parallel group: the one rule Parallel executes and
// checkpoints shard by.
type Slicing uint8

const (
	// SliceNone keeps every tensor whole on the group's first rank.
	SliceNone Slicing = iota
	// SliceCols is column-parallel: W, B and their moments are cut by
	// columns.
	SliceCols
	// SliceRows is row-parallel: W and its moments are cut by rows; B
	// and its moments stay whole on the group's first rank, because the
	// bias is added after the all-reduce.
	SliceRows
)

// OpSlicing returns how op is sliced under set: a matmul with tp > 1
// is cut along its partition dim, every other op is not.
func OpSlicing(op *model.Op, set *config.OpSetting) Slicing {
	if op.Kind != model.KindMatMul || set.TP <= 1 {
		return SliceNone
	}
	if op.Dims[set.Dim].Name == "col" {
		return SliceCols
	}
	return SliceRows
}

// Block is the rectangle rows [R0, R0+Rows) × cols [C0, C0+Cols) of a
// tensor.
type Block struct{ R0, C0, Rows, Cols int }

// Of copies block b out of m.
func (b Block) Of(m *tensor.Mat) *tensor.Mat {
	out := tensor.New(b.Rows, b.Cols)
	for i := 0; i < b.Rows; i++ {
		copy(out.Data[i*b.Cols:(i+1)*b.Cols], m.Data[(b.R0+i)*m.Cols+b.C0:])
	}
	return out
}

// Cut returns the block of m, a tensor of kind k, that rank t of a
// tp-wide group holds under s, and false when the rank holds none of
// it. Where tp does not divide the cut dimension, the blocks leave its
// remainder uncovered.
func (s Slicing) Cut(k TensorKind, m *tensor.Mat, tp, t int) (Block, bool) {
	switch {
	case s == SliceCols:
		n := m.Cols / tp
		return Block{0, t * n, m.Rows, n}, true
	case s == SliceRows && kinds[k].param == W:
		n := m.Rows / tp
		return Block{t * n, 0, n, m.Cols}, true
	}
	return Block{0, 0, m.Rows, m.Cols}, t == 0
}

type grads struct {
	W map[int]*tensor.Mat
	B map[int]*tensor.Mat
}

func newGrads(p *Params, ops []int) *grads {
	g := &grads{W: map[int]*tensor.Mat{}, B: map[int]*tensor.Mat{}}
	for _, id := range ops {
		if w, ok := p.T[W][id]; ok {
			g.W[id] = tensor.New(w.Rows, w.Cols)
			g.B[id] = tensor.New(1, p.T[B][id].Cols)
		}
	}
	return g
}

// Serial trains the MLP for iters steps of microbatched SGD on one
// device and returns the per-iteration losses. It is the reference
// that Parallel must match.
func Serial(g *model.Graph, p *Params, x, y *tensor.Mat, microBatch int, lr float64, iters int) ([]float64, error) {
	rps := p.rowsPerSample()
	if err := checkData(g, x, y, microBatch, rps); err != nil {
		return nil, err
	}
	mbRows := microBatch * rps
	numMB := x.Rows / mbRows
	p.EnsureOptState()
	base := p.Step
	losses := make([]float64, 0, iters)
	opIDs := make([]int, len(g.Ops))
	for i := range opIDs {
		opIDs[i] = i
	}
	for it := 0; it < iters; it++ {
		acc := newGrads(p, opIDs)
		var lossSum float64
		for mb := 0; mb < numMB; mb++ {
			xmb := tensor.RowSlice(x, mb*mbRows, (mb+1)*mbRows)
			ymb := tensor.RowSlice(y, mb*mbRows, (mb+1)*mbRows)
			// Forward, stashing each op's input.
			stash := make([]*tensor.Mat, len(g.Ops))
			act := xmb
			for i := range g.Ops {
				stash[i] = act
				switch g.Ops[i].Kind {
				case model.KindMatMul:
					act = tensor.AddBias(tensor.MatMul(act, p.T[W][i]), p.T[B][i])
				case model.KindLayerNorm:
					act, _ = tensor.LayerNorm(act, p.T[W][i], p.T[B][i])
				case model.KindAttentionCore:
					if p.Arch == nil {
						return nil, fmt.Errorf("runtime: attention op %d needs Arch params", i)
					}
					act = attnForward(act, p.Arch.Seq, p.Arch.Hidden/p.Arch.Heads, p.Arch.Causal)
				case model.KindElementwise:
					act = tensor.ReLU(act)
				default:
					return nil, &UnsupportedOpError{Op: i, Kind: g.Ops[i].Kind}
				}
			}
			loss, d := tensor.MSE(act, ymb)
			lossSum += loss
			// Backward.
			for i := len(g.Ops) - 1; i >= 0; i-- {
				switch g.Ops[i].Kind {
				case model.KindMatMul:
					tensor.AddInPlace(acc.W[i], tensor.MatMul(tensor.Transpose(stash[i]), d))
					tensor.ColSumTo(acc.B[i], d)
					d = tensor.MatMul(d, tensor.Transpose(p.T[W][i]))
				case model.KindLayerNorm:
					// Recompute the normalization cache from the input.
					_, cache := tensor.LayerNorm(stash[i], p.T[W][i], p.T[B][i])
					d = tensor.LayerNormBackward(d, cache, p.T[W][i], acc.W[i], acc.B[i])
				case model.KindAttentionCore:
					d = attnBackward(d, stash[i], p.Arch.Seq, p.Arch.Hidden/p.Arch.Heads, p.Arch.Causal)
				case model.KindElementwise:
					d = tensor.ReLUBackward(d, stash[i])
				}
			}
		}
		applyUpdate(p, acc, lr, 1/float64(numMB), base+it+1)
		losses = append(losses, lossSum/float64(numMB))
	}
	p.Step = base + iters
	return losses, nil
}

// applyUpdate applies one optimizer step to the ops present in acc.
// gradScale folds the microbatch averaging (1/numMB); step is the
// 1-based iteration count (Adam bias correction).
func applyUpdate(p *Params, acc *grads, lr, gradScale float64, step int) {
	for id, dw := range acc.W {
		updateTensor(p.Opt, p.T[W][id], dw, p.T[MW][id], p.T[VW][id], lr, gradScale, step)
		updateTensor(p.Opt, p.T[B][id], acc.B[id], p.T[MB][id], p.T[VB][id], lr, gradScale, step)
	}
}

// updateTensor applies one step to w with gradient g; m and v are its
// Adam moments (unused under SGD).
func updateTensor(opt Optimizer, w, g, m, v *tensor.Mat, lr, gradScale float64, step int) {
	if opt != Adam {
		s := lr * gradScale
		for i := range w.Data {
			w.Data[i] -= s * g.Data[i]
		}
		return
	}
	c1 := 1 - pow(adamBeta1, step)
	c2 := 1 - pow(adamBeta2, step)
	for i := range w.Data {
		grad := g.Data[i] * gradScale
		m.Data[i] = adamBeta1*m.Data[i] + (1-adamBeta1)*grad
		v.Data[i] = adamBeta2*v.Data[i] + (1-adamBeta2)*grad*grad
		mhat := m.Data[i] / c1
		vhat := v.Data[i] / c2
		w.Data[i] -= lr * mhat / (math.Sqrt(vhat) + adamEps)
	}
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

func checkData(g *model.Graph, x, y *tensor.Mat, microBatch, rowsPerSample int) error {
	if x.Rows != g.GlobalBatch*rowsPerSample {
		return fmt.Errorf("runtime: X has %d rows, want batch %d × %d rows/sample",
			x.Rows, g.GlobalBatch, rowsPerSample)
	}
	if y.Rows != x.Rows {
		return fmt.Errorf("runtime: X/Y row mismatch %d vs %d", x.Rows, y.Rows)
	}
	if microBatch <= 0 || g.GlobalBatch%microBatch != 0 {
		return fmt.Errorf("runtime: microbatch %d does not divide batch %d", microBatch, g.GlobalBatch)
	}
	return nil
}

// FaultPlan injects a device failure into a Parallel run: the
// device with global rank Rank dies at the start of iteration
// Iteration (0-based, counted within the run). The stage hosting the
// device surfaces a typed *DeviceLostError at that iteration boundary
// and the World marks the stage's ranks dead, so every other stage
// fails fast through the comm layer instead of deadlocking.
type FaultPlan struct {
	Rank      int
	Iteration int
}

// RunOptions tunes a Parallel execution beyond the core training
// arguments. The zero value runs fault-free with unbounded waits.
type RunOptions struct {
	// Fault, when non-nil, kills a device mid-run (see FaultPlan).
	Fault *FaultPlan
	// CommDeadline bounds every collective/p2p wait; 0 = unbounded.
	// Any elastic or chaos caller should set it: it converts a bug
	// that would deadlock the World into a typed timeout error.
	CommDeadline time.Duration
}

// DeviceLostError reports a device failure injected (or detected) at
// an iteration boundary. Step is the global optimizer step count at
// the failure point — the resume floor for checkpoint recovery.
type DeviceLostError struct {
	Rank      int // the lost device's global rank
	Stage     int // pipeline stage hosting the device
	Iteration int // run-local iteration at whose start it died
	Step      int // global optimizer steps completed before the loss
}

// Error implements the error interface.
func (e *DeviceLostError) Error() string {
	return fmt.Sprintf("runtime: device %d (stage %d) lost at iteration %d (step %d)",
		e.Rank, e.Stage, e.Iteration, e.Step)
}

// CheckRunnable verifies that the numeric runtime can execute cfg with
// the given parameters: cfg is valid on its own device count (which
// includes the microbatch dividing the batch), every op kind is
// supported, weights exist and divide by their tensor-parallel
// degrees. Exported so elastic replanning can filter searched
// candidates down to executable ones before committing a resharded
// state to one of them.
func CheckRunnable(g *model.Graph, cfg *config.Config, p *Params) error {
	if err := cfg.Validate(g, cfg.TotalDevices()); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	for si := range cfg.Stages {
		st := &cfg.Stages[si]
		for j := st.Start; j < st.End; j++ {
			op := &g.Ops[j]
			set := st.Setting(j)
			switch op.Kind {
			case model.KindMatMul:
				w := p.T[W][j]
				if w == nil {
					return fmt.Errorf("runtime: op %d has no weights", j)
				}
				if w.Cols%set.TP != 0 || w.Rows%set.TP != 0 {
					return fmt.Errorf("runtime: op %d weight %d×%d not divisible by tp %d",
						j, w.Rows, w.Cols, set.TP)
				}
			case model.KindAttentionCore:
				if p.Arch == nil {
					return fmt.Errorf("runtime: attention op %d needs Arch params", j)
				}
				if p.Arch.Heads%set.TP != 0 {
					return fmt.Errorf("runtime: op %d: %d heads not divisible by tp %d",
						j, p.Arch.Heads, set.TP)
				}
			case model.KindLayerNorm, model.KindElementwise:
				// Executable with no extra parameters.
			default:
				// Rejecting unknown kinds up front keeps the error out
				// of the concurrent stage executors, where a failing
				// stage would leave its neighbors blocked on Recv.
				return &UnsupportedOpError{Op: j, Kind: op.Kind}
			}
		}
	}
	return nil
}

// Parallel trains the MLP under cfg — concurrent pipeline stages,
// column/row tensor parallelism, data-parallel row sharding,
// microbatching and recomputation — and returns per-iteration losses.
// The final parameters are written back into p; they must match
// Serial's up to floating-point summation order. opt adds fault
// injection and comm deadlines.
//
// On a device loss (injected via opt.Fault, or any comm-layer failure)
// it returns the losses of the iterations the last stage completed
// plus a typed error — *DeviceLostError when a planned fault fired.
// The parameter state p is torn in that case (stages stop at
// different iterations) and must be restored from a checkpoint; that
// is exactly the contract the elastic layer is built around.
func Parallel(g *model.Graph, cfg *config.Config, p *Params, x, y *tensor.Mat, lr float64, iters int, opt RunOptions) ([]float64, error) {
	if err := checkData(g, x, y, cfg.MicroBatch, p.rowsPerSample()); err != nil {
		return nil, err
	}
	if err := CheckRunnable(g, cfg, p); err != nil {
		return nil, err
	}

	p.EnsureOptState()
	world, err := comm.NewWorld(cfg.TotalDevices())
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	world.SetDeadline(opt.CommDeadline)
	if f := opt.Fault; f != nil {
		if f.Rank < 0 || f.Rank >= cfg.TotalDevices() {
			return nil, fmt.Errorf("runtime: fault rank %d out of range [0, %d)", f.Rank, cfg.TotalDevices())
		}
		if f.Iteration < 0 || f.Iteration >= iters {
			return nil, fmt.Errorf("runtime: fault iteration %d out of range [0, %d)", f.Iteration, iters)
		}
	}
	numMB := g.GlobalBatch / cfg.MicroBatch
	p0 := cfg.NumStages()
	base := p.Step

	type stageOut struct {
		losses []float64
		err    error
	}
	outs := make([]stageOut, p0)
	var wg sync.WaitGroup
	for si := 0; si < p0; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			ex := &stageExec{
				g: g, cfg: cfg, si: si, st: &cfg.Stages[si],
				world: world, params: p,
				firstDev: cfg.FirstDev(si),
				baseStep: base,
				fault:    opt.Fault,
			}
			losses, err := ex.run(x, y, lr, iters, numMB)
			if err != nil {
				// Cascade: a failed stage takes its ranks down so
				// neighbors blocked on its traffic fail fast instead of
				// waiting out the deadline (or hanging without one).
				world.FailRange(ex.firstDev, ex.st.Devices)
			}
			outs[si] = stageOut{losses, err}
		}(si)
	}
	wg.Wait()

	// Partial losses: whatever the last stage completed before the run
	// ended (all of them on success).
	losses := outs[p0-1].losses
	// A planned fault is the root cause — report it over the secondary
	// comm errors the other stages died of.
	for si := range outs {
		var dl *DeviceLostError
		if errors.As(outs[si].err, &dl) {
			return losses, fmt.Errorf("runtime: stage %d: %w", si, outs[si].err)
		}
	}
	for si := range outs {
		if outs[si].err != nil {
			return losses, fmt.Errorf("runtime: stage %d: %w", si, outs[si].err)
		}
	}
	p.Step = base + iters
	return losses, nil
}

// acts is the in-stage activation state: dp row-shards, each either a
// single replicated matrix or tp column shards.
type acts struct {
	dp, tp int
	layout model.Layout
	parts  [][]*tensor.Mat // [dpIdx][tpIdx]; tp==1 ⇒ one full part
}

// full assembles the complete microbatch activation.
func (a *acts) full() *tensor.Mat {
	rows := make([]*tensor.Mat, a.dp)
	for d := 0; d < a.dp; d++ {
		if a.layout == model.Split && a.tp > 1 {
			rows[d] = tensor.ConcatCols(a.parts[d]...)
		} else {
			rows[d] = a.parts[d][0]
		}
	}
	if a.dp == 1 {
		return rows[0]
	}
	return tensor.ConcatRows(rows...)
}

func fromFull(m *tensor.Mat, dp int) *acts {
	a := &acts{dp: dp, tp: 1, layout: model.Replicated, parts: make([][]*tensor.Mat, dp)}
	rows := m.Rows / dp
	for d := 0; d < dp; d++ {
		a.parts[d] = []*tensor.Mat{tensor.RowSlice(m, d*rows, (d+1)*rows)}
	}
	return a
}

// stageExec runs one pipeline stage.
type stageExec struct {
	g        *model.Graph
	cfg      *config.Config
	si       int
	st       *config.Stage
	world    *comm.World
	params   *Params
	firstDev int
	baseStep int        // optimizer steps completed before this run
	fault    *FaultPlan // nil unless a failure is scheduled
}

// tpGroup returns the global ranks of replica d's tensor-parallel
// group for an op with degree tp.
func (e *stageExec) tpGroup(d, tp int) []int {
	base := e.firstDev + d*tp
	out := make([]int, tp)
	for t := range out {
		out[t] = base + t
	}
	return out
}

// tpAllReduce sums parts across the tp group using one goroutine per
// rank — the runtime's NCCL-equivalent path. Any rank's comm failure
// fails the whole group-local reduce.
func (e *stageExec) tpAllReduce(d int, parts []*tensor.Mat) (*tensor.Mat, error) {
	group := e.tpGroup(d, len(parts))
	outs := make([]*tensor.Mat, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for t := range parts {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			outs[t], errs[t] = e.world.AllReduceSum(group, group[t], parts[t])
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs[0], nil
}

// stash holds what one microbatch's backward needs: the input acts of
// every op (nil for recomputed ops) plus the stage input.
type stash struct {
	input  *tensor.Mat // stage-boundary input (full rows)
	perOp  []*acts     // index: op - st.Start
	output *acts       // final activation (last stage only)
}

// forward runs the stage's ops for one microbatch, returning the
// stash. When record is false (recompute's regeneration pass skips
// nothing), rc ops stash too.
func (e *stageExec) forward(in *tensor.Mat, record bool) (*stash, error) {
	s := &stash{input: in, perOp: make([]*acts, e.st.NumOps())}
	var a *acts
	for j := e.st.Start; j < e.st.End; j++ {
		set := e.st.Setting(j)
		if a == nil || a.dp != set.DP {
			var fullIn *tensor.Mat
			if a == nil {
				fullIn = in
			} else {
				fullIn = a.full()
			}
			a = fromFull(fullIn, set.DP)
		}
		if record || !set.Recompute {
			s.perOp[j-e.st.Start] = a
		}
		var err error
		a, err = e.forwardOp(j, a)
		if err != nil {
			return nil, err
		}
	}
	s.output = a
	return s, nil
}

// forwardOp applies op j to activation a.
func (e *stageExec) forwardOp(j int, a *acts) (*acts, error) {
	op := &e.g.Ops[j]
	set := e.st.Setting(j)
	switch op.Kind {
	case model.KindMatMul:
		sl := OpSlicing(op, set)
		w, b := e.params.T[W][j], e.params.T[B][j]
		out := &acts{dp: set.DP, tp: set.TP, parts: make([][]*tensor.Mat, set.DP)}
		for d := 0; d < set.DP; d++ {
			xFull := replicaFull(a, d)
			switch sl {
			case SliceNone:
				out.tp = 1
				out.layout = model.Replicated
				out.parts[d] = []*tensor.Mat{tensor.AddBias(tensor.MatMul(xFull, w), b)}
			case SliceCols:
				// Column-parallel: shard W's columns; outputs stay split.
				parts := make([]*tensor.Mat, set.TP)
				for t := 0; t < set.TP; t++ {
					wt, _ := sl.Cut(W, w, set.TP, t)
					bt, _ := sl.Cut(B, b, set.TP, t)
					parts[t] = tensor.AddBias(tensor.MatMul(xFull, wt.Of(w)), bt.Of(b))
				}
				out.layout = model.Split
				out.parts[d] = parts
			case SliceRows:
				// Row-parallel: shard X's columns and W's rows; the
				// partial products all-reduce to the full output.
				partials := make([]*tensor.Mat, set.TP)
				for t := 0; t < set.TP; t++ {
					wt, _ := sl.Cut(W, w, set.TP, t)
					xt := tensor.ColSlice(xFull, wt.R0, wt.R0+wt.Rows)
					partials[t] = tensor.MatMul(xt, wt.Of(w))
				}
				sum, err := e.tpAllReduce(d, partials)
				if err != nil {
					return nil, err
				}
				out.tp = 1
				out.layout = model.Replicated
				out.parts[d] = []*tensor.Mat{tensor.AddBias(sum, b)}
			}
		}
		return out, nil
	case model.KindAttentionCore:
		// DimHead: each tp rank attends over its own heads. A matching
		// column-split input (head-major QKV blocks from the column-
		// parallel projection) is consumed shard-by-shard; otherwise
		// gather and re-slice on head boundaries.
		arch := e.params.Arch
		dh := arch.Hidden / arch.Heads
		out := &acts{dp: set.DP, tp: set.TP, layout: model.Split, parts: make([][]*tensor.Mat, set.DP)}
		if set.TP == 1 {
			out.layout = model.Replicated
		}
		for d := 0; d < set.DP; d++ {
			parts := splitCols(a, d, set.TP)
			outParts := make([]*tensor.Mat, len(parts))
			for t, qkv := range parts {
				outParts[t] = attnForward(qkv, arch.Seq, dh, arch.Causal)
			}
			out.parts[d] = outParts
		}
		return out, nil
	case model.KindLayerNorm:
		// DimNone: computed replicated on every tp rank over the full
		// hidden dimension — a column-split input gathers first (the
		// relayout the performance model charges for).
		out := &acts{dp: set.DP, tp: 1, layout: model.Replicated, parts: make([][]*tensor.Mat, set.DP)}
		gain, bias := e.params.T[W][j], e.params.T[B][j]
		for d := 0; d < set.DP; d++ {
			xFull := replicaFull(a, d)
			y, _ := tensor.LayerNorm(xFull, gain, bias)
			out.parts[d] = []*tensor.Mat{y}
		}
		return out, nil
	case model.KindElementwise:
		out := &acts{dp: a.dp, tp: a.tp, layout: a.layout, parts: make([][]*tensor.Mat, a.dp)}
		for d := range a.parts {
			out.parts[d] = make([]*tensor.Mat, len(a.parts[d]))
			for t := range a.parts[d] {
				out.parts[d][t] = tensor.ReLU(a.parts[d][t])
			}
		}
		return out, nil
	default:
		return nil, &UnsupportedOpError{Op: j, Kind: op.Kind}
	}
}

// replicaFull returns replica d's rows as one full-width matrix.
func replicaFull(a *acts, d int) *tensor.Mat {
	if a.layout == model.Split && a.tp > 1 {
		return tensor.ConcatCols(a.parts[d]...)
	}
	return a.parts[d][0]
}

// backward runs the stage's backward for one microbatch, accumulating
// weight gradients into acc and returning the gradient for the
// previous stage (full rows).
func (e *stageExec) backward(s *stash, dOut *tensor.Mat, acc *grads) (*tensor.Mat, error) {
	// Regenerate missing stashes (recomputation).
	for j := e.st.Start; j < e.st.End; j++ {
		if s.perOp[j-e.st.Start] == nil {
			var err error
			s, err = e.forward(s.input, true)
			if err != nil {
				return nil, err
			}
			break
		}
	}
	d := fromFull(dOut, e.st.Setting(e.st.End-1).DP)
	for j := e.st.End - 1; j >= e.st.Start; j-- {
		set := e.st.Setting(j)
		if d.dp != set.DP {
			d = fromFull(d.full(), set.DP)
		}
		in := s.perOp[j-e.st.Start]
		var err error
		d, err = e.backwardOp(j, in, d, acc)
		if err != nil {
			return nil, err
		}
	}
	return d.full(), nil
}

// backwardOp propagates gradients through op j given its stashed input.
func (e *stageExec) backwardOp(j int, in, d *acts, acc *grads) (*acts, error) {
	op := &e.g.Ops[j]
	set := e.st.Setting(j)
	switch op.Kind {
	case model.KindMatMul:
		sl := OpSlicing(op, set)
		w := e.params.T[W][j]
		out := &acts{dp: set.DP, tp: 1, layout: model.Replicated, parts: make([][]*tensor.Mat, set.DP)}
		for dp := 0; dp < set.DP; dp++ {
			xFull := replicaFull(in, dp)
			switch sl {
			case SliceNone:
				dy := replicaFull(d, dp)
				tensor.AddInPlace(acc.W[j], tensor.MatMul(tensor.Transpose(xFull), dy))
				tensor.ColSumTo(acc.B[j], dy)
				out.parts[dp] = []*tensor.Mat{tensor.MatMul(dy, tensor.Transpose(w))}
			case SliceCols:
				// dY arrives split; each shard contributes to its W
				// columns, and dX all-reduces across the group.
				dyParts := splitCols(d, dp, set.TP)
				partials := make([]*tensor.Mat, set.TP)
				for t := 0; t < set.TP; t++ {
					wt, _ := sl.Cut(W, w, set.TP, t)
					dwt := tensor.MatMul(tensor.Transpose(xFull), dyParts[t])
					accBlock(acc.W[j], dwt, wt)
					accColsBias(acc.B[j], dyParts[t], wt.C0)
					partials[t] = tensor.MatMul(dyParts[t], tensor.Transpose(wt.Of(w)))
				}
				dx, err := e.tpAllReduce(dp, partials)
				if err != nil {
					return nil, err
				}
				out.parts[dp] = []*tensor.Mat{dx}
			case SliceRows:
				// Row-parallel: dY is replicated; X was column-split.
				dy := replicaFull(d, dp)
				dxParts := make([]*tensor.Mat, set.TP)
				for t := 0; t < set.TP; t++ {
					wt, _ := sl.Cut(W, w, set.TP, t)
					xt := tensor.ColSlice(xFull, wt.R0, wt.R0+wt.Rows)
					dwt := tensor.MatMul(tensor.Transpose(xt), dy)
					accBlock(acc.W[j], dwt, wt)
					dxParts[t] = tensor.MatMul(dy, tensor.Transpose(wt.Of(w)))
				}
				tensor.ColSumTo(acc.B[j], dy)
				out.parts[dp] = []*tensor.Mat{tensor.ConcatCols(dxParts...)}
			}
		}
		return out, nil
	case model.KindAttentionCore:
		arch := e.params.Arch
		dh := arch.Hidden / arch.Heads
		out := &acts{dp: set.DP, tp: set.TP, layout: model.Split, parts: make([][]*tensor.Mat, set.DP)}
		if set.TP == 1 {
			out.layout = model.Replicated
		}
		for dp := 0; dp < set.DP; dp++ {
			qkvParts := splitCols(in, dp, set.TP)
			dyParts := splitCols(d, dp, set.TP)
			dParts := make([]*tensor.Mat, len(qkvParts))
			for t := range qkvParts {
				dParts[t] = attnBackward(dyParts[t], qkvParts[t], arch.Seq, dh, arch.Causal)
			}
			out.parts[dp] = dParts
		}
		return out, nil
	case model.KindLayerNorm:
		out := &acts{dp: set.DP, tp: 1, layout: model.Replicated, parts: make([][]*tensor.Mat, set.DP)}
		gain := e.params.T[W][j]
		for dp := 0; dp < set.DP; dp++ {
			dy := replicaFull(d, dp)
			x := replicaFull(in, dp)
			_, cache := tensor.LayerNorm(x, gain, e.params.T[B][j])
			out.parts[dp] = []*tensor.Mat{tensor.LayerNormBackward(dy, cache, gain, acc.W[j], acc.B[j])}
		}
		return out, nil
	case model.KindElementwise:
		out := &acts{dp: d.dp, tp: 1, layout: model.Replicated, parts: make([][]*tensor.Mat, d.dp)}
		for dp := 0; dp < d.dp; dp++ {
			dy := replicaFull(d, dp)
			x := replicaFull(in, dp)
			out.parts[dp] = []*tensor.Mat{tensor.ReLUBackward(dy, x)}
		}
		return out, nil
	default:
		return nil, &UnsupportedOpError{Op: j, Kind: op.Kind}
	}
}

// splitCols views replica dp's activation or gradient as tp column
// shards of width total/tp — for attention's QKV and context, whole
// heads per shard.
func splitCols(a *acts, dp, tp int) []*tensor.Mat {
	if a.layout == model.Split && a.tp == tp {
		return a.parts[dp]
	}
	full := replicaFull(a, dp)
	shard := full.Cols / tp
	out := make([]*tensor.Mat, tp)
	for t := 0; t < tp; t++ {
		out[t] = tensor.ColSlice(full, t*shard, (t+1)*shard)
	}
	return out
}

// accBlock accumulates a gradient block into block b of the full
// matrix.
func accBlock(dst, part *tensor.Mat, b Block) {
	for i := 0; i < part.Rows; i++ {
		row := dst.Data[(b.R0+i)*dst.Cols+b.C0:]
		for j, v := range part.Data[i*part.Cols : (i+1)*part.Cols] {
			row[j] += v
		}
	}
}

func accColsBias(dst, dy *tensor.Mat, colOff int) {
	for i := 0; i < dy.Rows; i++ {
		for j := 0; j < dy.Cols; j++ {
			dst.Data[colOff+j] += dy.At(i, j)
		}
	}
}

// run executes the stage's training loop: per iteration, forward every
// microbatch (stashing), then backward every microbatch, then apply
// the accumulated update to this stage's weights.
func (e *stageExec) run(x, y *tensor.Mat, lr float64, iters, numMB int) ([]float64, error) {
	opIDs := make([]int, 0, e.st.NumOps())
	for j := e.st.Start; j < e.st.End; j++ {
		opIDs = append(opIDs, j)
	}
	prevDev, nextDev := -1, -1
	if e.si > 0 {
		prevDev = e.cfg.FirstDev(e.si - 1)
	}
	if e.si < e.cfg.NumStages()-1 {
		nextDev = e.cfg.FirstDev(e.si + 1)
	}
	last := nextDev < 0
	mbRows := e.cfg.MicroBatch * e.params.rowsPerSample()

	var losses []float64
	for it := 0; it < iters; it++ {
		// Planned fault: the owning stage dies at the top of iteration
		// `it`, before any traffic for it. Marking the stage's ranks dead
		// first makes every peer blocked on them fail fast through comm.
		if f := e.fault; f != nil && it == f.Iteration && f.Rank >= e.firstDev && f.Rank < e.firstDev+e.st.Devices {
			e.world.FailRange(e.firstDev, e.st.Devices)
			return losses, &DeviceLostError{
				Rank: f.Rank, Stage: e.si, Iteration: it, Step: e.baseStep + it,
			}
		}
		acc := newGrads(e.params, opIDs)
		stashes := make([]*stash, numMB)
		dTop := make([]*tensor.Mat, numMB)
		var lossSum float64
		for mb := 0; mb < numMB; mb++ {
			var in *tensor.Mat
			if prevDev < 0 {
				in = tensor.RowSlice(x, mb*mbRows, (mb+1)*mbRows)
			} else {
				var err error
				in, err = e.world.Recv(prevDev, e.firstDev, tag("fwd", it, mb))
				if err != nil {
					return losses, err
				}
			}
			s, err := e.forward(in, false)
			if err != nil {
				return losses, err
			}
			stashes[mb] = s
			if last {
				out := s.output.full()
				ymb := tensor.RowSlice(y, mb*mbRows, (mb+1)*mbRows)
				loss, d := tensor.MSE(out, ymb)
				lossSum += loss
				dTop[mb] = d
			} else {
				if err := e.world.Send(e.firstDev, nextDev, tag("fwd", it, mb), s.output.full()); err != nil {
					return losses, err
				}
			}
		}
		for mb := numMB - 1; mb >= 0; mb-- {
			var d *tensor.Mat
			if last {
				d = dTop[mb]
			} else {
				var err error
				d, err = e.world.Recv(nextDev, e.firstDev, tag("bwd", it, mb))
				if err != nil {
					return losses, err
				}
			}
			dIn, err := e.backward(stashes[mb], d, acc)
			if err != nil {
				return losses, err
			}
			if prevDev >= 0 {
				if err := e.world.Send(e.firstDev, prevDev, tag("bwd", it, mb), dIn); err != nil {
					return losses, err
				}
			}
		}
		applyUpdate(e.params, acc, lr, 1/float64(numMB), e.baseStep+it+1)
		if last {
			losses = append(losses, lossSum/float64(numMB))
		}
	}
	return losses, nil
}

func tag(kind string, it, mb int) string {
	return fmt.Sprintf("%s:%d:%d", kind, it, mb)
}
