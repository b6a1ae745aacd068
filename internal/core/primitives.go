// Package core implements Aceso's contribution: the iterative
// bottleneck-alleviation configuration search (§3), comprising the
// reconfiguration-primitive table (Table 1), the bottleneck heuristics
// (Heuristic-1/2), the multi-hop search (Algorithm 2), the op-level
// fine-tuning pass (§4.2), and the parallel per-stage-count top-level
// search (Algorithm 1, §4.3).
package core

import (
	"fmt"
	"slices"

	"aceso/internal/config"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// Resource is one of the three hardware resources Aceso trades
// between: computation, communication, and memory.
type Resource int

const (
	Comp Resource = iota
	Comm
	Mem
)

// String implements fmt.Stringer.
func (r Resource) String() string {
	switch r {
	case Comp:
		return "comp"
	case Comm:
		return "comm"
	case Mem:
		return "mem"
	}
	return fmt.Sprintf("Resource(%d)", int(r))
}

// Trend is a primitive's effect on the consumption of one resource at
// the stage it is applied to (Table 1's ↗ / ⇒ / ↘).
type Trend int

const (
	Down Trend = iota - 1
	Flat
	Up
)

// Primitive is one row of the reconfiguration-primitive table. Each
// primitive adjusts exactly one mechanism, which keeps its resource
// impact analyzable; apply realizes it as moves on the trial's base (a
// primitive's argument — how many ops, which partner, which halving —
// yields several concrete moves that the multi-hop search ranks by
// estimated performance), appended to t.moves.
type Primitive struct {
	Name string
	Comp Trend
	Comm Trend
	Mem  Trend
	// Extended marks a primitive beyond the paper's Table 1, eligible
	// only under Options.ExtendedPrimitives.
	Extended bool

	apply func(s *searcher, t *trial, stage int)
}

// effect returns the primitive's trend on a resource.
func (p *Primitive) effect(r Resource) Trend {
	switch r {
	case Comp:
		return p.Comp
	case Comm:
		return p.Comm
	default:
		return p.Mem
	}
}

// Table is the reconfiguration-primitive table: Table 1, then the
// extended primitives. Trends describe the bottleneck stage's
// consumption: e.g. inc-dp halves the stage's per-device compute and
// activation memory at the price of data-parallel synchronization
// traffic.
var Table = []Primitive{
	{Name: "inc-op#", Comp: Up, Comm: Flat, Mem: Up,
		apply: applyIncOps},
	{Name: "dec-op#", Comp: Down, Comm: Flat, Mem: Down,
		apply: applyDecOps},
	{Name: "inc-mbs", Comp: Down, Comm: Flat, Mem: Up,
		apply: applyIncMBS},
	{Name: "dec-mbs", Comp: Up, Comm: Flat, Mem: Down,
		apply: applyDecMBS},
	{Name: "inc-dp", Comp: Down, Comm: Up, Mem: Down,
		apply: resize(true, true)},
	{Name: "dec-dp", Comp: Up, Comm: Down, Mem: Up,
		apply: resize(false, true)},
	{Name: "inc-tp", Comp: Down, Comm: Up, Mem: Down,
		apply: resize(true, false)},
	{Name: "dec-tp", Comp: Up, Comm: Down, Mem: Up,
		apply: resize(false, false)},
	{Name: "inc-rc", Comp: Up, Comm: Flat, Mem: Down,
		apply: applyIncRC},
	{Name: "dec-rc", Comp: Down, Comm: Flat, Mem: Up,
		apply: applyDecRC},
	// The extended primitives follow §3.2.1's note that "Aceso can be
	// extended with new primitives for future research". inc-zr/dec-zr
	// toggle ZeRO-1 optimizer-state sharding across a stage's
	// data-parallel groups: memory drops by (dp−1)/dp of the optimizer
	// states at the cost of a parameter all-gather per iteration.
	{Name: "inc-zr", Comp: Flat, Comm: Up, Mem: Down, Extended: true,
		apply: toggle(true, true)},
	{Name: "dec-zr", Comp: Flat, Comm: Down, Mem: Up, Extended: true,
		apply: toggle(true, false)},
	// Sequence parallelism is close to a free lunch on the tp-heavy
	// stages it applies to (Korthikanti et al. 2022): replicated-region
	// activations and compute shrink by tp at equal communication
	// volume — which is why inc-sp is eligible for both compute and
	// memory bottlenecks and dec-sp for neither (it exists as the
	// inverse for completeness).
	{Name: "inc-sp", Comp: Down, Comm: Flat, Mem: Down, Extended: true,
		apply: toggle(false, true)},
	{Name: "dec-sp", Comp: Up, Comm: Flat, Mem: Up, Extended: true,
		apply: toggle(false, false)},
}

// eligible memoizes Eligible by (extended, resource), in table order:
// the table is immutable after init and the multi-hop search queries it
// at every node, so the query must not allocate.
var eligible = func() (m [2][3][]*Primitive) {
	for ext := range m {
		for r := range m[ext] {
			for i := range Table {
				if Table[i].effect(Resource(r)) == Down && (ext == 1 || !Table[i].Extended) {
					m[ext][r] = append(m[ext][r], &Table[i])
				}
			}
		}
	}
	return m
}()

// Eligible returns the primitives that decrease consumption of r — the
// table query of §3.2.2 — among Table 1's, or among all when extended.
// The returned slice is shared and must not be mutated.
func Eligible(r Resource, extended bool) []*Primitive {
	if extended {
		return eligible[1][r]
	}
	return eligible[0][r]
}

// ---------- moves ----------

// moveKind is what a move edits: a row of Table 1, or one of
// fineTune's op-level adjustments.
type moveKind uint8

const (
	shiftOps      moveKind = iota // k ops across every boundary from stage to `to` (inc/dec-op#, relay)
	rescaleStage                  // stage doubles or halves its devices, partner `to` the reverse (inc/dec-dp/tp)
	retileOps                     // ops [n, end) of stage between tp- and dp-heavier tilings (inc/dec-dp/tp, fineTune)
	setMicroBatch                 // the microbatch becomes n (inc/dec-mbs)
	setRecompute                  // a recompute rung: ops' Recompute flags become on (inc/dec-rc)
	toggleFlag                    // ZeRO or sequence parallelism becomes on over stage (inc/dec-zr/sp)
	flipDim                       // op n's sharding dim becomes dim (fineTune)
)

// move is one candidate edit of a trial's base, a plain value: the
// search applies it to the base's scratch copy, judges it and undoes it
// (trial), so a candidate costs a copy only when the search keeps it.
type move struct {
	kind  moveKind
	stage int // the stage edited; a shift's donor
	to    int // a shift's last receiving stage; a rescale's partner
	n     int // ops per boundary (shift), first op from the stage start (retile), microbatch, flipped op
	dim   int // a flip's new dim
	// on: a rescale grows stage, a retile goes dp-heavier, a rung or a
	// toggle sets its flag. dp and toDP are a rescale's mechanisms for
	// stage and partner; zero picks ZeRO over sequence parallelism.
	on, dp, toDP, zero bool
	ops                []rcCand // a rung's operators, in trial.ops: rank is reused by attachRecompute
}

// apply edits c, a copy of the base the move was made on, in place, and
// reports false, with c untouched, when the move does not apply: only a
// retile checks, for fineTune makes retiles before it knows their best.
func (m *move) apply(c *config.Config) bool {
	switch m.kind {
	case shiftOps:
		dir := 1
		if m.to < m.stage {
			dir = -1
		}
		for cur := m.stage; cur != m.to; cur += dir {
			shift(c, cur, dir, m.n)
		}
	case rescaleStage:
		rescale(c, m.stage, m.on, m.dp)
		rescale(c, m.to, !m.on, m.toDP)
	case retileOps:
		return retile(c, m.stage, m.n, m.on)
	case setMicroBatch:
		c.SetMicroBatch(m.n)
	case setRecompute:
		setRC(c, m.stage, m.ops, m.on)
	case toggleFlag:
		st := &c.Stages[m.stage]
		for j := range st.Ops {
			if f := flagOf(&st.Ops[j], m.zero); f != nil {
				*f = m.on
			}
		}
		c.InvalidateStage(m.stage)
	case flipDim:
		c.MutOp(m.stage, m.n, func(o *config.OpSetting) { o.Dim = m.dim })
	}
	return true
}

// undo restores from t's base the stages m edited on t's scratch (a
// shift's or rescale's range from stage to to, else stage), t.climbed.
func (t *trial) undo(m *move) {
	lo, hi := m.stage, m.stage
	if m.kind == shiftOps || m.kind == rescaleStage {
		lo, hi = min(m.stage, m.to), max(m.stage, m.to)
	}
	t.scratch.Restore(t.base, lo, hi)
	for _, si := range t.climbed {
		t.scratch.Restore(t.base, si, si)
	}
	t.climbed = t.climbed[:0]
}

// ---------- helpers shared by the apply functions ----------

// idlestStage returns the stage (≠ exclude) with the shortest stage
// time — the partner with the most spare capacity (§3.2.1).
func idlestStage(est *perfmodel.Estimate, exclude int) int {
	best := -1
	for i := range est.Stages {
		if i == exclude {
			continue
		}
		if best < 0 || est.Stages[i].StageTime < est.Stages[best].StageTime {
			best = i
		}
	}
	return best
}

// rescaleVia reports the mechanism, dp (true) or tp, by which stage i
// of c doubles (grow) or halves its device count when asked for dp
// (useDP) or tp: a doubled dp must still divide the microbatch, and a
// halving the asked mechanism cannot make on every op is made by the
// other one. ok is false when no resize is possible.
func rescaleVia(c *config.Config, i int, grow, useDP bool) (dp, ok bool) {
	st := &c.Stages[i]
	canDP, canTP := true, true
	for j := range st.Ops {
		op := &st.Ops[j]
		if grow {
			canDP = canDP && c.MicroBatch%(op.DP*2) == 0
		} else {
			canDP = canDP && op.DP >= 2
			canTP = canTP && op.TP >= 2
		}
	}
	if !grow && (useDP && !canDP || !useDP && !canTP) {
		useDP = !useDP
	}
	return useDP, useDP && canDP || !useDP && canTP
}

// rescale doubles (grow) or halves stage i's device count through every
// op's dp or tp, a mechanism rescaleVia allowed.
func rescale(c *config.Config, i int, grow, dp bool) {
	st := &c.Stages[i]
	for j := range st.Ops {
		op := &st.Ops[j]
		switch {
		case grow && dp:
			op.SetTiling(op.TP, op.DP*2)
		case grow:
			op.SetTiling(op.TP*2, op.DP)
		case dp:
			op.SetTiling(op.TP, op.DP/2)
		default:
			op.SetTiling(op.TP/2, op.DP)
		}
	}
	if grow {
		st.Devices *= 2
	} else {
		st.Devices /= 2
	}
	c.InvalidateStage(i)
}

// shift moves k operators across the boundary between stages from and
// from+dir (dir = -1 moves the first k ops of `from` to the previous
// stage; dir = +1 moves the last k ops to the next stage); the donor
// must keep at least one. Transferred ops adopt the receiving stage's tp/dp (nearest
// existing op as template) but keep their own sharding dim, which is
// op-specific and stays valid. Recompute flags do not transfer across
// stages: the template's recompute choice applies (the rc-attachment
// pass re-optimizes).
func shift(c *config.Config, from, dir, k int) {
	dst := c.Stages[from+dir].Ops
	var tpl config.OpSetting
	var moved []config.OpSetting
	if dir < 0 {
		tpl = dst[len(dst)-1]
		moved = c.ShiftBoundary(from-1, k)
	} else {
		tpl = dst[0]
		moved = c.ShiftBoundary(from, -k)
	}
	for i := range moved {
		dim := moved[i].Dim
		moved[i] = tpl
		moved[i].Dim = dim
	}
}

// opKs returns the candidate "how many ops to move" arguments for a
// stage with n ops: 1, 2, 4, ... capped at half the stage. The result
// is appended into buf[:0] so callers on the search hot path can
// recycle a scratch slice; each call's result must be fully consumed
// before the next call reuses the buffer. Every k leaves the donor an
// operator, so every shift the op# primitives make is legal.
func opKs(buf []int, n int) []int {
	ks := buf[:0]
	for k := 1; k <= n/2 || k == 1 && n > 1; k *= 2 {
		ks = append(ks, k)
		if k >= n/2 {
			break
		}
	}
	return ks
}

// ---------- primitive applications ----------

func applyDecOps(s *searcher, t *trial, stage int) {
	cfg := t.base
	idle := idlestStage(t.est, stage)
	if idle < 0 {
		return
	}
	dir := +1
	if idle < stage {
		dir = -1
	}
	ks := opKs(s.opksBuf, cfg.Stages[stage].NumOps())
	s.opksBuf = ks
	for _, k := range ks {
		// Direct move toward the idlest stage, then the relay
		// combination (§4.3): every boundary between the bottleneck and
		// the idlest stage shifts by k.
		t.moves = append(t.moves, move{kind: shiftOps, stage: stage, to: stage + dir, n: k})
		if idle != stage+dir {
			t.moves = append(t.moves, move{kind: shiftOps, stage: stage, to: idle, n: k})
		}
		// Opposite direction as a fallback candidate.
		if to := stage - dir; k == 1 && to >= 0 && to < cfg.NumStages() {
			t.moves = append(t.moves, move{kind: shiftOps, stage: stage, to: to, n: k})
		}
	}
}

func applyIncOps(s *searcher, t *trial, stage int) {
	// Pull ops into this stage from whichever neighbor is busier.
	cfg := t.base
	for _, dir := range [...]int{-1, +1} {
		nb := stage + dir
		if nb < 0 || nb >= cfg.NumStages() {
			continue
		}
		ks := opKs(s.opksBuf, cfg.Stages[nb].NumOps())
		s.opksBuf = ks
		for _, k := range ks {
			t.moves = append(t.moves, move{kind: shiftOps, stage: nb, to: stage, n: k})
		}
	}
}

func applyIncMBS(s *searcher, t *trial, _ int) {
	if mbs := t.base.MicroBatch * 2; s.graph.GlobalBatch%mbs == 0 {
		t.moves = append(t.moves, move{kind: setMicroBatch, n: mbs})
	}
}

func applyDecMBS(_ *searcher, t *trial, _ int) {
	cfg := t.base
	if cfg.MicroBatch%2 != 0 {
		return
	}
	mbs := cfg.MicroBatch / 2
	// Every op's dp must still divide the microbatch.
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			if mbs%cfg.Stages[i].Ops[j].DP != 0 {
				return
			}
		}
	}
	t.moves = append(t.moves, move{kind: setMicroBatch, n: mbs})
}

// resize returns the apply function of the inc/dec-dp/tp rows: the
// stage trades devices with a partner (tradeDevices) and, besides,
// retiles in place at the same device count — dp-heavier under inc-dp
// and dec-tp, tp-heavier under dec-dp and inc-tp.
func resize(grow, useDP bool) func(s *searcher, t *trial, stage int) {
	return func(s *searcher, t *trial, stage int) {
		tradeDevices(s, t, stage, grow, useDP)
		t.moves = append(t.moves, move{kind: retileOps, stage: stage, on: grow == useDP})
	}
}

// tradeDevices doubles (grow) or halves the bottleneck stage's devices
// via dp (useDP) or tp (Figure 5(c)/(d)). Device counts must balance
// exactly: a partner halves to free what a growing stage takes, or
// doubles to take what a shrinking one frees, so eligible partners hold
// exactly twice (grow) or half the stage's devices. A growing stage
// borrows from the idlest partner first, a shrinking one gives to the
// busiest, which benefits most (§3.2.1); the partner halves or doubles
// via dp, then via tp, and one partner that yields a move is enough —
// multi-hop explores the rest.
func tradeDevices(s *searcher, t *trial, stage int, grow, useDP bool) {
	cfg := t.base
	devs := cfg.Stages[stage].Devices
	if cfg.NumStages() < 2 || !grow && devs < 2 {
		return
	}
	est := t.est
	dp, ok := rescaleVia(cfg, stage, grow, useDP)
	if !ok {
		return
	}
	want := devs / 2
	if grow {
		want = devs * 2
	}
	partners := partnersBySlack(est, cfg, stage, want)
	if !grow {
		slices.Reverse(partners)
	}
	n := len(t.moves)
	for _, partner := range partners {
		for _, partnerDP := range [...]bool{true, false} {
			if toDP, ok := rescaleVia(cfg, partner, !grow, partnerDP); ok {
				t.moves = append(t.moves, move{kind: rescaleStage, stage: stage, to: partner, on: grow, dp: dp, toDP: toDP})
			}
		}
		if len(t.moves) > n {
			break
		}
	}
}

// partnersBySlack returns the stages (≠ stage) with exactly `devices`
// devices, ordered from idlest to busiest.
func partnersBySlack(est *perfmodel.Estimate, cfg *config.Config, stage, devices int) []int {
	var out []int
	for i := range cfg.Stages {
		if i != stage && cfg.Stages[i].Devices == devices {
			out = append(out, i)
		}
	}
	sortCands(out, func(a, b int) bool {
		return est.Stages[a].StageTime < est.Stages[b].StageTime
	})
	return out
}

// retile converts ops [stage.Start+from, stage.End) of c between tp-
// and dp-heavier tilings of the same device count: toDP doubles dp and
// halves tp, or the reverse. It reports false, with c untouched, when
// an op cannot convert.
func retile(c *config.Config, stage, from int, toDP bool) bool {
	st := &c.Stages[stage]
	if from >= st.NumOps() {
		return false
	}
	for j := from; j < st.NumOps(); j++ {
		op := &st.Ops[j]
		if toDP && (op.TP < 2 || c.MicroBatch%(op.DP*2) != 0) || !toDP && op.DP < 2 {
			return false
		}
	}
	for j := from; j < st.NumOps(); j++ {
		op := &st.Ops[j]
		if toDP {
			op.SetTiling(op.TP/2, op.DP*2)
		} else {
			op.SetTiling(op.TP*2, op.DP/2)
		}
	}
	c.InvalidateStage(stage)
	return true
}

// savedActBytes approximates the activation bytes an op stashes per
// microbatch — the greedy key for choosing recomputation targets
// (§4.1: largest activation first).
func savedActBytes(g *model.Graph, cfg *config.Config, stage, op int) float64 {
	o := &g.Ops[op]
	set := cfg.Stages[stage].Setting(op)
	samples := float64(cfg.MicroBatch / set.DP)
	return (o.ActElems + o.WorkElems) / float64(set.TP) * samples * g.Precision.BytesPerElem()
}

// rcCand ranks an op by the activation bytes its recompute choice
// stashes; both rc primitives and attachRecompute build their ranking in
// their node's rank buffer.
type rcCand struct {
	op    int
	bytes float64
}

// rcRank ranks the ops of stage whose Recompute flag is recomputed in
// the order the rc primitives flip them: the largest stash is
// recomputed first, the cheapest un-recomputed first.
func rcRank(s *searcher, t *trial, cfg *config.Config, stage int, recomputed bool) []rcCand {
	st := &cfg.Stages[stage]
	cands := t.rank[:0]
	for j := st.Start; j < st.End; j++ {
		if st.Setting(j).Recompute == recomputed {
			cands = append(cands, rcCand{j, savedActBytes(s.graph, cfg, stage, j)})
		}
	}
	t.rank = cands
	sortCands(cands, func(a, b rcCand) bool { return recomputed && a.bytes < b.bytes || !recomputed && a.bytes > b.bytes })
	return cands
}

// setRC sets the Recompute flag of ops in stage of c, moving c's key
// in place by one term difference per op.
func setRC(c *config.Config, stage int, ops []rcCand, on bool) {
	for _, o := range ops {
		c.MutOp(stage, o.op, func(s *config.OpSetting) { s.Recompute = on })
	}
}

// climbRC walks stage's recompute ladder on c, t's scratch, marking its
// rungs in place: rung k recomputes the first k ops of rank, for k = 1,
// 2, 4, … ≤ len(rank), and the walk stops at the first rung that makes c
// feasible (§4.1's greedy goal). No rung is estimated: its key is
// counted explored (rung), and its stage peak is arithmetic on c's estimate e
// (RecomputePeak), folded with e's other stages as the walk folds them.
// climbRC returns the last rung's k and the first that fits the stage
// (0: none); the ladder's top, all of rank, is the caller's to take.
func climbRC(s *searcher, t *trial, c *config.Config, e *perfmodel.Estimate, stage int, rank []rcCand) (k, fit int) {
	others, capMem := e.Microbatches > 0, e.Stages[stage].CapMem
	for i := range e.Stages {
		others = others && (i == stage || !(e.Stages[i].PeakMem > e.Stages[i].CapMem))
	}
	t.terms = s.pm.StashTerms(c, stage, t.terms)
	for k = 1; k <= len(rank); k *= 2 {
		setRC(c, stage, rank[k/2:k], true)
		s.rung(t, c.Key())
		peak := e.RecomputePeak(stage, &c.Stages[stage], t.terms)
		if fit == 0 && peak <= capMem {
			fit = k
		}
		if others && !(peak > capMem) || 2*k > len(rank) {
			break
		}
	}
	return k, fit
}

// applyIncRC offers each rung of the stage's recompute ladder, then the
// ladder's top, "recompute everything". The ladder climbs on the
// trial's scratch, against the base's estimate, which it then restores;
// the rungs share a copy of the ranking, in t.ops, as prefixes.
func applyIncRC(s *searcher, t *trial, stage int) {
	ops := append(t.ops[:0], rcRank(s, t, t.base, stage, false)...)
	if t.ops = ops; len(ops) == 0 {
		return
	}
	last, _ := climbRC(s, t, t.scratch, t.est, stage, ops)
	for k := 1; k <= last && len(ops) > 1; k *= 2 {
		t.moves = append(t.moves, move{kind: setRecompute, stage: stage, on: true, ops: ops[:k]})
	}
	t.scratch.Restore(t.base, stage, stage)
	t.moves = append(t.moves, move{kind: setRecompute, stage: stage, on: true, ops: ops})
}

// applyDecRC un-recomputes the first k ops of the ranking, for k = 1,
// 2, 4, … < n, then all n.
func applyDecRC(s *searcher, t *trial, stage int) {
	ops := append(t.ops[:0], rcRank(s, t, t.base, stage, true)...)
	if t.ops = ops; len(ops) == 0 {
		return
	}
	for k := 1; k < len(ops); k *= 2 {
		t.moves = append(t.moves, move{kind: setRecompute, stage: stage, ops: ops[:k]})
	}
	t.moves = append(t.moves, move{kind: setRecompute, stage: stage, ops: ops})
}

// sortCands is a tiny insertion sort to keep the apply functions free
// of interface plumbing (candidate lists are short).
func sortCands[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// flagOf returns the op's ZeRO (zero) or sequence-parallel flag when the
// op can carry it — dp > 1 for ZeRO, tp > 1 for sequence parallelism —
// and nil otherwise.
func flagOf(op *config.OpSetting, zero bool) *bool {
	switch {
	case zero && op.DP > 1:
		return &op.ZeRO
	case !zero && op.TP > 1:
		return &op.SeqPar
	}
	return nil
}

// toggle returns the apply function that sets ZeRO (zero) or sequence
// parallelism to on for every op of the stage that can carry the flag.
// It offers nothing when no op would change.
func toggle(zero, on bool) func(s *searcher, t *trial, stage int) {
	return func(_ *searcher, t *trial, stage int) {
		st := &t.base.Stages[stage]
		for j := range st.Ops {
			if f := flagOf(&st.Ops[j], zero); f != nil && *f != on {
				t.moves = append(t.moves, move{kind: toggleFlag, stage: stage, on: on, zero: zero})
				return
			}
		}
	}
}
