// Package core implements Aceso's contribution: the iterative
// bottleneck-alleviation configuration search (§3), comprising the
// reconfiguration-primitive table (Table 1), the bottleneck heuristics
// (Heuristic-1/2), the multi-hop search (Algorithm 2), the op-level
// fine-tuning pass (§4.2), and the parallel per-stage-count top-level
// search (Algorithm 1, §4.3).
package core

import (
	"fmt"

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
// impact analyzable; Apply realizes it as a set of candidate
// configurations (a primitive's argument — how many ops, which
// partner, which halving — yields several concrete candidates that the
// multi-hop search ranks by estimated performance).
type Primitive struct {
	Name      string
	Mechanism string
	Comp      Trend
	Comm      Trend
	Mem       Trend
	// Partner is true for primitives that necessarily modify a second
	// stage (inc/dec-op#, inc/dec-dp, inc/dec-tp; §3.2.1).
	Partner bool

	apply func(s *searcher, cfg *config.Config, stage int) []*config.Config
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

// Table is the reconfiguration-primitive table (Table 1). Trends
// describe the bottleneck stage's consumption: e.g. inc-dp halves the
// stage's per-device compute and activation memory at the price of
// data-parallel synchronization traffic.
var Table = []Primitive{
	{Name: "inc-op#", Mechanism: "pipeline", Comp: Up, Comm: Flat, Mem: Up, Partner: true,
		apply: applyIncOps},
	{Name: "dec-op#", Mechanism: "pipeline", Comp: Down, Comm: Flat, Mem: Down, Partner: true,
		apply: applyDecOps},
	{Name: "inc-mbs", Mechanism: "pipeline", Comp: Down, Comm: Flat, Mem: Up,
		apply: applyIncMBS},
	{Name: "dec-mbs", Mechanism: "pipeline", Comp: Up, Comm: Flat, Mem: Down,
		apply: applyDecMBS},
	{Name: "inc-dp", Mechanism: "data", Comp: Down, Comm: Up, Mem: Down, Partner: true,
		apply: resize(true, true)},
	{Name: "dec-dp", Mechanism: "data", Comp: Up, Comm: Down, Mem: Up, Partner: true,
		apply: resize(false, true)},
	{Name: "inc-tp", Mechanism: "tensor", Comp: Down, Comm: Up, Mem: Down, Partner: true,
		apply: resize(true, false)},
	{Name: "dec-tp", Mechanism: "tensor", Comp: Up, Comm: Down, Mem: Up, Partner: true,
		apply: resize(false, false)},
	{Name: "inc-rc", Mechanism: "recompute", Comp: Up, Comm: Flat, Mem: Down,
		apply: applyIncRC},
	{Name: "dec-rc", Mechanism: "recompute", Comp: Down, Comm: Flat, Mem: Up,
		apply: applyDecRC},
}

// eligibleByResource memoizes Eligible per resource: the table is
// immutable after init and the multi-hop search queries it at every
// node, so the query must not allocate.
var eligibleByResource = func() (m [3][]*Primitive) {
	for _, r := range []Resource{Comp, Comm, Mem} {
		for i := range Table {
			if Table[i].effect(r) == Down {
				m[r] = append(m[r], &Table[i])
			}
		}
	}
	return m
}()

// Eligible returns the primitives that decrease consumption of r —
// the table query of §3.2.2. The returned slice is shared and must
// not be mutated.
func Eligible(r Resource) []*Primitive {
	return eligibleByResource[r]
}

// PrimitiveByName returns the table row with the given name, or nil.
func PrimitiveByName(name string) *Primitive {
	for i := range Table {
		if Table[i].Name == name {
			return &Table[i]
		}
	}
	return nil
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

// rescale doubles (grow) or halves stage i's device count through every
// op's dp (useDP) or tp. A doubled dp must still divide the microbatch;
// a halving the chosen mechanism cannot make on every op is made by the
// other one. Returns false, with the stage untouched, when no resize is
// possible.
func rescale(c *config.Config, i int, grow, useDP bool) bool {
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
	if useDP && !canDP || !useDP && !canTP {
		return false
	}
	for j := range st.Ops {
		op := &st.Ops[j]
		switch {
		case grow && useDP:
			op.SetTiling(op.TP, op.DP*2)
		case grow:
			op.SetTiling(op.TP*2, op.DP)
		case useDP:
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
	return true
}

// moveOps shifts k operators across the boundary between stages from
// and from±1 (dir = -1 moves the first k ops of `from` to the previous
// stage; dir = +1 moves the last k ops to the next stage). Transferred
// ops adopt settings compatible with the receiving stage. Returns nil
// when the move is illegal.
func moveOps(s *searcher, cfg *config.Config, from, dir, k int) *config.Config {
	to := from + dir
	if to < 0 || to >= cfg.NumStages() || k <= 0 {
		return nil
	}
	if cfg.Stages[from].NumOps() <= k {
		return nil // donor must keep at least one op
	}
	out := s.clone(cfg)
	// Transferred ops adopt the receiving stage's tp/dp (nearest
	// existing op as template) but keep their own sharding dim, which
	// is op-specific and stays valid. Recompute flags do not transfer
	// across stages: the template's recompute choice applies (the
	// rc-attachment pass re-optimizes).
	dst := out.Stages[to].Ops
	var tpl config.OpSetting
	var moved []config.OpSetting
	if dir < 0 {
		tpl = dst[len(dst)-1]
		moved = out.ShiftBoundary(to, k)
	} else {
		tpl = dst[0]
		moved = out.ShiftBoundary(from, -k)
	}
	for i := range moved {
		dim := moved[i].Dim
		moved[i] = tpl
		moved[i].Dim = dim
	}
	return out
}

// opKs returns the candidate "how many ops to move" arguments for a
// stage with n ops: 1, 2, 4, ... capped at half the stage. The result
// is appended into buf[:0] so callers on the search hot path can
// recycle a scratch slice; each call's result must be fully consumed
// before the next call reuses the buffer.
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

func applyDecOps(s *searcher, cfg *config.Config, stage int) []*config.Config {
	est := s.estimate(cfg)
	idle := idlestStage(est, stage)
	if idle < 0 {
		return nil
	}
	dir := +1
	if idle < stage {
		dir = -1
	}
	out := s.applyOut()
	ks := opKs(s.opksBuf, cfg.Stages[stage].NumOps())
	s.opksBuf = ks
	for _, k := range ks {
		// Direct move toward the idlest stage.
		if c := moveOps(s, cfg, stage, dir, k); c != nil {
			out = append(out, c)
		}
		// Relay combination (§4.3): shift every boundary between the
		// bottleneck and the idlest stage by k. Intermediate hops are
		// dead the moment the next hop is cloned from them.
		if idle != stage+dir {
			c := cfg
			ok := true
			for cur := stage; cur != idle; cur += dir {
				next := moveOps(s, c, cur, dir, k)
				if c != cfg {
					s.discard(c)
				}
				if next == nil {
					ok = false
					break
				}
				c = next
			}
			if ok {
				out = append(out, c)
			}
		}
		// Opposite direction as a fallback candidate.
		if k == 1 {
			if c := moveOps(s, cfg, stage, -dir, k); c != nil {
				out = append(out, c)
			}
		}
	}
	return s.keepOut(out)
}

func applyIncOps(s *searcher, cfg *config.Config, stage int) []*config.Config {
	// Pull ops into this stage from whichever neighbor is busier.
	out := s.applyOut()
	for _, dir := range []int{-1, +1} {
		nb := stage + dir
		if nb < 0 || nb >= cfg.NumStages() {
			continue
		}
		ks := opKs(s.opksBuf, cfg.Stages[nb].NumOps())
		s.opksBuf = ks
		for _, k := range ks {
			if c := moveOps(s, cfg, nb, -dir, k); c != nil {
				out = append(out, c)
			}
		}
	}
	return s.keepOut(out)
}

func applyIncMBS(s *searcher, cfg *config.Config, _ int) []*config.Config {
	mbs := cfg.MicroBatch * 2
	if s.graph.GlobalBatch%mbs != 0 {
		return nil
	}
	c := s.clone(cfg)
	c.SetMicroBatch(mbs)
	return s.keepOut(append(s.applyOut(), c))
}

func applyDecMBS(s *searcher, cfg *config.Config, _ int) []*config.Config {
	if cfg.MicroBatch%2 != 0 {
		return nil
	}
	mbs := cfg.MicroBatch / 2
	// Every op's dp must still divide the microbatch.
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			if mbs%cfg.Stages[i].Ops[j].DP != 0 {
				return nil
			}
		}
	}
	c := s.clone(cfg)
	c.SetMicroBatch(mbs)
	return s.keepOut(append(s.applyOut(), c))
}

// resize returns the apply function of the inc/dec-dp/tp rows: the
// stage trades devices with a partner (tradeDevices) and, besides,
// retiles in place at the same device count — dp-heavier under inc-dp
// and dec-tp, tp-heavier under dec-dp and inc-tp.
func resize(grow, useDP bool) func(s *searcher, cfg *config.Config, stage int) []*config.Config {
	return func(s *searcher, cfg *config.Config, stage int) []*config.Config {
		out := tradeDevices(s, cfg, stage, grow, useDP, s.applyOut())
		if c := retileRange(s, cfg, stage, 0, grow == useDP); c != nil {
			out = append(out, c)
		}
		return s.keepOut(out)
	}
}

// tradeDevices doubles (grow) or halves the bottleneck stage's devices
// via dp (useDP) or tp (Figure 5(c)/(d)) and appends the results to
// out. Device counts must balance exactly: a partner halves to free
// what a growing stage takes, or doubles to take what a shrinking one
// frees, so eligible partners hold exactly twice (grow) or half the
// stage's devices. A growing stage borrows from the idlest partner
// first, a shrinking one gives to the busiest, which benefits most
// (§3.2.1); the partner halves or doubles via dp, then via tp, and one
// partner that yields a candidate is enough — multi-hop explores the
// rest.
func tradeDevices(s *searcher, cfg *config.Config, stage int, grow, useDP bool, out []*config.Config) []*config.Config {
	devs := cfg.Stages[stage].Devices
	if cfg.NumStages() < 2 || !grow && devs < 2 {
		return out
	}
	est := s.estimate(cfg)
	want := devs / 2
	if grow {
		want = devs * 2
	}
	partners := partnersBySlack(est, cfg, stage, want)
	if !grow {
		for i, j := 0, len(partners)-1; i < j; i, j = i+1, j-1 {
			partners[i], partners[j] = partners[j], partners[i]
		}
	}
	n := len(out)
	for _, partner := range partners {
		for _, partnerDP := range []bool{true, false} {
			c := s.clone(cfg)
			if !rescale(c, stage, grow, useDP) {
				s.discard(c)
				return out
			}
			if !rescale(c, partner, !grow, partnerDP) {
				s.discard(c)
				continue
			}
			out = append(out, c)
		}
		if len(out) > n {
			break
		}
	}
	return out
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

// retileRange converts ops [stage.Start+from, stage.End) between tp-
// and dp-heavier tilings of the same device count: toDP doubles dp and
// halves tp, or the reverse. Returns nil when illegal.
func retileRange(s *searcher, cfg *config.Config, stage, from int, toDP bool) *config.Config {
	st := &cfg.Stages[stage]
	if from >= st.NumOps() {
		return nil
	}
	for j := from; j < st.NumOps(); j++ {
		op := &st.Ops[j]
		if toDP && (op.TP < 2 || cfg.MicroBatch%(op.DP*2) != 0) || !toDP && op.DP < 2 {
			return nil
		}
	}
	c := s.clone(cfg)
	c.MutStage(stage, func(nst *config.Stage) {
		for j := from; j < nst.NumOps(); j++ {
			op := &nst.Ops[j]
			if toDP {
				op.SetTiling(op.TP/2, op.DP*2)
			} else {
				op.SetTiling(op.TP*2, op.DP/2)
			}
		}
	})
	return c
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
// stashes; both rc primitives build their ranking in the searcher's
// shared rcBuf scratch (safe: apply functions never nest, see
// searcher.rcBuf).
type rcCand struct {
	op    int
	bytes float64
}

func applyIncRC(s *searcher, cfg *config.Config, stage int) []*config.Config {
	st := &cfg.Stages[stage]
	// Rank non-recomputed ops by descending saved activation.
	cands := s.rcBuf[:0]
	for j := st.Start; j < st.End; j++ {
		if !st.Setting(j).Recompute {
			cands = append(cands, rcCand{j, savedActBytes(s.graph, cfg, stage, j)})
		}
	}
	s.rcBuf = cands
	if len(cands) == 0 {
		return nil
	}
	sortCands(cands, func(a, b rcCand) bool { return a.bytes > b.bytes })

	mark := func(k int) *config.Config {
		c := s.clone(cfg)
		c.MutStage(stage, func(st *config.Stage) {
			for i := 0; i < k && i < len(cands); i++ {
				st.Setting(cands[i].op).Recompute = true
			}
		})
		return c
	}
	out := s.applyOut()
	// Minimal k that brings the stage under the memory limit (greedy
	// goal of §4.1), plus a quarter step and "recompute everything".
	for k := 1; k <= len(cands); k *= 2 {
		c := mark(k)
		out = append(out, c)
		if e := s.estimate(c); e.Feasible {
			break
		}
	}
	if k := len(cands); k > 1 {
		out = append(out, mark(k))
	}
	return s.keepOut(out)
}

func applyDecRC(s *searcher, cfg *config.Config, stage int) []*config.Config {
	st := &cfg.Stages[stage]
	cands := s.rcBuf[:0]
	for j := st.Start; j < st.End; j++ {
		if st.Setting(j).Recompute {
			cands = append(cands, rcCand{j, savedActBytes(s.graph, cfg, stage, j)})
		}
	}
	s.rcBuf = cands
	if len(cands) == 0 {
		return nil
	}
	// Un-recompute the cheapest stashes first.
	sortCands(cands, func(a, b rcCand) bool { return a.bytes < b.bytes })
	clear := func(k int) *config.Config {
		c := s.clone(cfg)
		c.MutStage(stage, func(st *config.Stage) {
			for i := 0; i < k && i < len(cands); i++ {
				st.Setting(cands[i].op).Recompute = false
			}
		})
		return c
	}
	out := s.applyOut()
	for k := 1; k < len(cands); k *= 2 {
		out = append(out, clear(k))
	}
	out = append(out, clear(len(cands)))
	return s.keepOut(out)
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
