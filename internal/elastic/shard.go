// Package elastic is the fault-recovery layer over the numeric
// runtime: versioned checkpoints of the full training state
// (checkpoint.go), a resharder that maps that state between arbitrary
// parallelization plans (this file), and one driver, Supervise
// (elastic.go), that closes the paper's bottleneck-alleviation loop at
// execution time — train, lose a device mid-iteration, core.Replan on
// the degraded cluster, reshard the last checkpoint onto the new plan,
// resume — for any schedule of fleet events (churn.go), from a single
// failure to continuous churn. The supervisor's layers are the fleet
// view (fleet.go), the recovery policies (policy.go), the reclaim
// notice drains (drain.go) and the segment loop (supervisor.go).
//
// The reshard contract is exactness: sharding is pure partitioning
// (every scalar of every tensor lives in exactly one shard), so
// A→assemble→B→assemble round trips are bitwise identity, and a
// fault-resume run continues the identical training trajectory the
// uninterrupted run would have followed.
package elastic

import (
	"fmt"

	"aceso/internal/config"
	"aceso/internal/model"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// TensorShard is a rectangular slice of one parameter tensor as it
// lives on one device rank: the sub-matrix [RowOff, RowOff+Rows) ×
// [ColOff, ColOff+Cols) of the FullRows×FullCols tensor of op Op.
type TensorShard struct {
	Op                 int
	Kind               runtime.TensorKind
	RowOff, ColOff     int
	Rows, Cols         int
	FullRows, FullCols int
	Data               []float64 // row-major, len == Rows*Cols
}

// elems returns the scalar count of the shard.
func (s *TensorShard) elems() int { return s.Rows * s.Cols }

// RankShard is the checkpointed state owned by one device rank.
type RankShard struct {
	Rank    int
	Tensors []TensorShard
}

// State is a complete sharded training state: runtime.Params cut along
// a specific config's tensor-parallel boundaries, plus the scalar
// state (optimizer step, RNG seed cursor, optimizer choice) that a
// resume needs to continue the same trajectory.
type State struct {
	Step  int
	Seed  int64
	Opt   runtime.Optimizer
	Ranks []RankShard
}

// ShardState cuts the full training state p along cfg's parallelization
// boundaries into per-rank shards, each op's tensors by
// runtime.OpSlicing and in runtime.Layout order. Weights replicated
// across a data-parallel group are checkpointed once, on the group's
// first replica (they are identical by construction — the runtime
// applies the same summed update on every replica). The shard data is
// copied: the returned State is independent of p.
func ShardState(g *model.Graph, cfg *config.Config, p *runtime.Params) (*State, error) {
	p.EnsureOptState()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	st := &State{Step: p.Step, Seed: p.Seed, Opt: p.Opt}
	ranks := make([]RankShard, cfg.TotalDevices())
	for si := range cfg.Stages {
		stage := &cfg.Stages[si]
		firstDev := cfg.FirstDev(si)
		for j := stage.Start; j < stage.End; j++ {
			set := stage.Setting(j)
			sl := runtime.OpSlicing(&g.Ops[j], set)
			for _, k := range runtime.Layout {
				m := p.T[k][j]
				if m == nil {
					continue // op carries no weights, or no moments under SGD
				}
				covered := 0
				for t := 0; t < set.TP; t++ {
					blk, ok := sl.Cut(k, m, set.TP, t)
					if !ok {
						continue
					}
					covered += blk.Rows * blk.Cols
					rs := &ranks[firstDev+t]
					rs.Tensors = append(rs.Tensors, TensorShard{
						Op: j, Kind: k, RowOff: blk.R0, ColOff: blk.C0, Rows: blk.Rows, Cols: blk.Cols,
						FullRows: m.Rows, FullCols: m.Cols, Data: blk.Of(m).Data,
					})
				}
				if covered != len(m.Data) {
					return nil, fmt.Errorf("elastic: op %d %v %dx%d does not divide among tp %d",
						j, k, m.Rows, m.Cols, set.TP)
				}
			}
		}
	}
	for r := range ranks {
		if len(ranks[r].Tensors) > 0 {
			ranks[r].Rank = r
			st.Ranks = append(st.Ranks, ranks[r])
		}
	}
	return st, nil
}

// tensorKey identifies one full tensor across shards.
type tensorKey struct {
	op   int
	kind runtime.TensorKind
}

// AssembleState reconstructs the full runtime.Params from a sharded
// State, verifying exact coverage: every scalar of every tensor must be
// written by exactly one shard — a gap or an overlap is a corruption
// (or a resharder bug) reported as an error, never silently absorbed —
// and every op with a tensor must carry all the kinds its optimizer
// holds (a *runtime.MissingTensorError otherwise). The caller attaches
// Arch for transformer graphs.
func AssembleState(st *State) (*runtime.Params, error) {
	p := &runtime.Params{Opt: st.Opt, Step: st.Step, Seed: st.Seed}
	covered := map[tensorKey][]uint8{}
	for ri := range st.Ranks {
		for ti := range st.Ranks[ri].Tensors {
			sh := &st.Ranks[ri].Tensors[ti]
			if sh.Kind >= runtime.NumTensorKinds {
				return nil, fmt.Errorf("elastic: op %d has unknown tensor kind %d", sh.Op, sh.Kind)
			}
			if sh.Rows < 0 || sh.Cols < 0 || sh.RowOff < 0 || sh.ColOff < 0 ||
				sh.RowOff+sh.Rows > sh.FullRows || sh.ColOff+sh.Cols > sh.FullCols {
				return nil, fmt.Errorf("elastic: op %d %v shard %dx%d@(%d,%d) outside full %dx%d",
					sh.Op, sh.Kind, sh.Rows, sh.Cols, sh.RowOff, sh.ColOff, sh.FullRows, sh.FullCols)
			}
			if len(sh.Data) != sh.elems() {
				return nil, fmt.Errorf("elastic: op %d %v shard has %d elems, want %d",
					sh.Op, sh.Kind, len(sh.Data), sh.elems())
			}
			key := tensorKey{sh.Op, sh.Kind}
			full := p.T[sh.Kind][sh.Op]
			if full == nil {
				if p.T[sh.Kind] == nil {
					p.T[sh.Kind] = map[int]*tensor.Mat{}
				}
				full = tensor.New(sh.FullRows, sh.FullCols)
				p.T[sh.Kind][sh.Op] = full
				covered[key] = make([]uint8, sh.FullRows*sh.FullCols)
			}
			if full.Rows != sh.FullRows || full.Cols != sh.FullCols {
				return nil, fmt.Errorf("elastic: op %d %v shards disagree on full shape (%dx%d vs %dx%d)",
					sh.Op, sh.Kind, full.Rows, full.Cols, sh.FullRows, sh.FullCols)
			}
			cov := covered[key]
			for i := 0; i < sh.Rows; i++ {
				for c := 0; c < sh.Cols; c++ {
					idx := (sh.RowOff+i)*full.Cols + sh.ColOff + c
					if cov[idx] != 0 {
						return nil, fmt.Errorf("elastic: op %d %v element (%d,%d) covered twice",
							sh.Op, sh.Kind, sh.RowOff+i, sh.ColOff+c)
					}
					cov[idx] = 1
					full.Data[idx] = sh.Data[i*sh.Cols+c]
				}
			}
		}
	}
	for key, cov := range covered {
		for idx, c := range cov {
			if c == 0 {
				return nil, fmt.Errorf("elastic: op %d %v element %d uncovered (gap in shards)",
					key.op, key.kind, idx)
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	return p, nil
}

// Reshard maps a state checkpointed under one config onto config `to`:
// assemble the full tensors, then cut them along the new plan's
// boundaries. Because both halves are pure partitioning over float64
// storage, any A→B→A round trip is bitwise identity.
func Reshard(g *model.Graph, to *config.Config, st *State) (*State, error) {
	p, err := AssembleState(st)
	if err != nil {
		return nil, fmt.Errorf("elastic: reshard assemble: %w", err)
	}
	out, err := ShardState(g, to, p)
	if err != nil {
		return nil, fmt.Errorf("elastic: reshard cut: %w", err)
	}
	return out, nil
}

// BytesMoved estimates the data movement a reshard from `from` to `to`
// implies: for every pair of overlapping shard rectangles of the same
// tensor, the overlap must travel unless source and destination are the
// same device. mapRank translates a state's logical ranks to physical
// devices (e.g. hardware.Cluster.PhysOf for a degraded cluster, where
// logical rank r of the new plan is a different physical GPU than
// logical rank r of the old one); nil means identity on both sides.
func BytesMoved(from, to *State, mapFrom, mapTo func(int) int) int64 {
	ident := func(r int) int { return r }
	if mapFrom == nil {
		mapFrom = ident
	}
	if mapTo == nil {
		mapTo = ident
	}
	type span struct {
		rank                       int
		rowOff, colOff, rows, cols int
	}
	src := map[tensorKey][]span{}
	for ri := range from.Ranks {
		for ti := range from.Ranks[ri].Tensors {
			sh := &from.Ranks[ri].Tensors[ti]
			src[tensorKey{sh.Op, sh.Kind}] = append(src[tensorKey{sh.Op, sh.Kind}],
				span{from.Ranks[ri].Rank, sh.RowOff, sh.ColOff, sh.Rows, sh.Cols})
		}
	}
	var bytes int64
	for ri := range to.Ranks {
		for ti := range to.Ranks[ri].Tensors {
			sh := &to.Ranks[ri].Tensors[ti]
			dst := mapTo(to.Ranks[ri].Rank)
			for _, s := range src[tensorKey{sh.Op, sh.Kind}] {
				if mapFrom(s.rank) == dst {
					continue
				}
				rows := overlap1D(s.rowOff, s.rows, sh.RowOff, sh.Rows)
				cols := overlap1D(s.colOff, s.cols, sh.ColOff, sh.Cols)
				bytes += int64(rows) * int64(cols) * 8
			}
		}
	}
	return bytes
}

// overlap1D returns the length of the intersection of [aOff, aOff+aLen)
// and [bOff, bOff+bLen).
func overlap1D(aOff, aLen, bOff, bLen int) int {
	lo := aOff
	if bOff > lo {
		lo = bOff
	}
	hi := aOff + aLen
	if bOff+bLen < hi {
		hi = bOff + bLen
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
