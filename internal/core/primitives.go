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
		apply: applyIncDP},
	{Name: "dec-dp", Mechanism: "data", Comp: Up, Comm: Down, Mem: Up, Partner: true,
		apply: applyDecDP},
	{Name: "inc-tp", Mechanism: "tensor", Comp: Down, Comm: Up, Mem: Down, Partner: true,
		apply: applyIncTP},
	{Name: "dec-tp", Mechanism: "tensor", Comp: Up, Comm: Down, Mem: Up, Partner: true,
		apply: applyDecTP},
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

// halveStageDevices halves a stage's device count by halving either
// every op's DP (preferDP) or every op's TP. Returns false when the
// halving is not possible.
func halveStageDevices(st *config.Stage, preferDP bool) bool {
	// All ops must be able to halve the chosen mechanism.
	canDP, canTP := true, true
	for j := range st.Ops {
		if st.Ops[j].DP < 2 {
			canDP = false
		}
		if st.Ops[j].TP < 2 {
			canTP = false
		}
	}
	useDP := preferDP && canDP || !preferDP && !canTP && canDP
	useTP := !preferDP && canTP || preferDP && !canDP && canTP
	switch {
	case useDP:
		for j := range st.Ops {
			st.Ops[j].DP /= 2
			if st.Ops[j].DP < 2 {
				st.Ops[j].ZeRO = false
			}
		}
	case useTP:
		for j := range st.Ops {
			st.Ops[j].TP /= 2
			if st.Ops[j].TP < 2 {
				st.Ops[j].SeqPar = false
			}
		}
	default:
		return false
	}
	st.Devices /= 2
	return true
}

// doubleStageDevices doubles a stage's device count by doubling either
// every op's DP or TP. mbs constrains DP (dp must divide mbs).
func doubleStageDevices(st *config.Stage, useDP bool, mbs int) bool {
	if useDP {
		for j := range st.Ops {
			if mbs%(st.Ops[j].DP*2) != 0 {
				return false
			}
		}
		for j := range st.Ops {
			st.Ops[j].DP *= 2
		}
	} else {
		for j := range st.Ops {
			st.Ops[j].TP *= 2
		}
	}
	st.Devices *= 2
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

// applyGrow doubles the bottleneck stage's devices via dp or tp
// (Figure 5(c)/(d)). Device counts must balance exactly: doubling a
// d-device stage consumes d devices, which a partner frees by halving
// only when it holds 2d — so eligible partners are the stages with
// exactly twice the bottleneck's devices, the idlest first (§3.2.1).
func applyGrow(s *searcher, cfg *config.Config, stage int, useDP bool) []*config.Config {
	if cfg.NumStages() < 2 {
		return nil
	}
	est := s.estimate(cfg)
	need := cfg.Stages[stage].Devices * 2
	out := s.applyOut()
	for _, partner := range partnersBySlack(est, cfg, stage, need) {
		for _, partnerDP := range []bool{true, false} { // dec-dp or dec-tp partner primitive
			c := s.clone(cfg)
			grew := false
			c.MutStage(stage, func(st *config.Stage) {
				grew = doubleStageDevices(st, useDP, c.MicroBatch)
			})
			if !grew {
				s.discard(c)
				return s.keepOut(out)
			}
			halved := false
			c.MutStage(partner, func(st *config.Stage) {
				halved = halveStageDevices(st, partnerDP)
			})
			if !halved {
				s.discard(c)
				continue
			}
			out = append(out, c)
		}
		if len(out) > 0 {
			break // one partner is enough; multi-hop explores the rest
		}
	}
	return s.keepOut(out)
}

// applyShrink halves the bottleneck stage's devices via dp or tp; the
// freed devices double a partner holding exactly half the bottleneck's
// count. The slowest such partner benefits most, so it goes first.
func applyShrink(s *searcher, cfg *config.Config, stage int, useDP bool) []*config.Config {
	if cfg.NumStages() < 2 || cfg.Stages[stage].Devices < 2 {
		return nil
	}
	est := s.estimate(cfg)
	want := cfg.Stages[stage].Devices / 2
	partners := partnersBySlack(est, cfg, stage, want)
	// Reverse: give devices to the busiest eligible stage.
	for i, j := 0, len(partners)-1; i < j; i, j = i+1, j-1 {
		partners[i], partners[j] = partners[j], partners[i]
	}
	out := s.applyOut()
	for _, partner := range partners {
		for _, partnerDP := range []bool{true, false} { // inc-dp or inc-tp partner primitive
			c := s.clone(cfg)
			halved := false
			c.MutStage(stage, func(st *config.Stage) {
				halved = halveStageDevices(st, useDP)
			})
			if !halved {
				s.discard(c)
				return s.keepOut(out)
			}
			doubled := false
			c.MutStage(partner, func(st *config.Stage) {
				doubled = doubleStageDevices(st, partnerDP, c.MicroBatch)
			})
			if !doubled {
				s.discard(c)
				continue
			}
			out = append(out, c)
		}
		if len(out) > 0 {
			break
		}
	}
	return s.keepOut(out)
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

func applyIncDP(s *searcher, cfg *config.Config, stage int) []*config.Config {
	// Besides borrowing devices, dp can grow in place by trading tp
	// for dp within the stage (same device count).
	out := applyGrow(s, cfg, stage, true)
	if c := retile(s, cfg, stage, true); c != nil {
		out = appendCand(s, out, c)
	}
	return out
}

func applyDecDP(s *searcher, cfg *config.Config, stage int) []*config.Config {
	out := applyShrink(s, cfg, stage, true)
	if c := retile(s, cfg, stage, false); c != nil {
		out = appendCand(s, out, c)
	}
	return out
}

func applyIncTP(s *searcher, cfg *config.Config, stage int) []*config.Config {
	out := applyGrow(s, cfg, stage, false)
	if c := retile(s, cfg, stage, false); c != nil {
		out = appendCand(s, out, c)
	}
	return out
}

func applyDecTP(s *searcher, cfg *config.Config, stage int) []*config.Config {
	out := applyShrink(s, cfg, stage, false)
	if c := retile(s, cfg, stage, true); c != nil {
		out = appendCand(s, out, c)
	}
	return out
}

// appendCand appends c to an apply result that may be nil (the helper
// bailed out before claiming the shared buffer) and re-registers the
// buffer so growth is retained.
func appendCand(s *searcher, out []*config.Config, c *config.Config) []*config.Config {
	if out == nil {
		out = s.applyOut()
	}
	return s.keepOut(append(out, c))
}

// retile converts tp↔dp within a stage without changing its device
// count: toDP doubles dp and halves tp (or the reverse).
func retile(s *searcher, cfg *config.Config, stage int, toDP bool) *config.Config {
	st := &cfg.Stages[stage]
	for j := range st.Ops {
		op := &st.Ops[j]
		if toDP {
			if op.TP < 2 || cfg.MicroBatch%(op.DP*2) != 0 {
				return nil
			}
		} else if op.DP < 2 {
			return nil
		}
	}
	c := s.clone(cfg)
	c.MutStage(stage, func(nst *config.Stage) {
		for j := range nst.Ops {
			op := &nst.Ops[j]
			if toDP {
				op.TP /= 2
				op.DP *= 2
				if op.TP < 2 {
					op.SeqPar = false
				}
			} else {
				op.DP /= 2
				op.TP *= 2
				if op.DP < 2 {
					op.ZeRO = false
				}
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
