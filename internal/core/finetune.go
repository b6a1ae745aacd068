package core

import "aceso/internal/config"

// trialHooks, when a test sets them: exact sends every fine-tune trial
// to the exact estimate, and won sees each trial that beat the best.
var trialHooks struct {
	exact bool
	won   func(*config.Config)
}

// fineTuneCandidateCap bounds the op-level candidates evaluated per
// fine-tuning pass so that fine-tuning on 1K-layer models cannot
// starve the outer search.
const fineTuneCandidateCap = 96

// fineTune is the §4.2 op-level pass run after each improving
// iteration. It greedily applies two families of adjustments and
// returns the improved configuration (nil when nothing helped):
//
//  1. Flexible tp/dp mixes inside a stage: starting from a handful of
//     suffix positions, convert [j, end) between tp- and dp-heavier
//     tilings of the same device count. Suffixes (rather than arbitrary
//     subranges) minimize the number of concurrency changes within the
//     stage, which is what the paper prefers to bound re-layout
//     collectives.
//  2. Flexible tensor-parallel dimensions: flip individual operators
//     to their alternative sharding dim (row↔col, in↔out channel).
func (s *searcher) fineTune(cfg *config.Config) *config.Config {
	curEst := s.estimate(cfg)
	best := cfg
	bestScore := s.score(cfg, curEst)
	improved := false
	budget := fineTuneCandidateCap

	// Every candidate is a clone of best with one stage rewritten, so
	// best is the batch base: the estimate copies every other stage.
	s.pushBatch(cfg, curEst)
	defer s.popBatch()

	consider := func(c *config.Config) {
		if c == nil {
			return
		}
		if budget <= 0 {
			s.st.recycle(c)
			return
		}
		budget--
		if !s.st.visit(c) {
			return
		}
		// Every candidate is a clone of the best so far with one stage
		// rewritten, and best is valid: cfg passed multiHop's check, a
		// successor passed this one. An invalid key stays visited, which
		// only skips its next copy (validity goes with the key).
		if err := c.ValidateDelta(s.graph, s.cluster.TotalDevices(), best); err != nil {
			s.st.recycle(c)
			return
		}
		lost := s.loses(c, bestScore)
		if s.met != nil {
			s.met.trials[lost].Inc()
		}
		if lost {
			s.st.recycle(c)
			return
		}
		e := s.estimate(c)
		sc := s.score(c, e)
		if sc < bestScore {
			if trialHooks.won != nil {
				trialHooks.won(c)
			}
			s.popBatch()
			s.pushBatch(c, e)
			// The superseded best is dead unless it is the caller's
			// input configuration.
			if best != cfg {
				s.st.recycle(best)
			}
			best, bestScore = c, sc
			improved = true
		} else {
			s.st.recycle(c)
		}
	}

	for si := range cfg.Stages {
		if s.expired() || budget <= 0 {
			break
		}
		st := &best.Stages[si]
		n := st.NumOps()
		// Suffix starts: stage start plus up to 6 interior positions.
		starts := []int{0}
		for _, f := range []int{8, 4, 2} {
			if p := n - n/f; p > 0 && p < n {
				starts = append(starts, p)
			}
		}
		for _, from := range starts {
			consider(retileRange(s, best, si, from, true))
			consider(retileRange(s, best, si, from, false))
		}
	}

	// Dim flips, bottleneck stage first for the remaining budget.
	est := s.estimate(best)
	bns := Bottlenecks(est, s.cluster.MemoryBytes)
	for _, bn := range bns {
		if s.expired() || budget <= 0 {
			break
		}
		// Capture the op range by value: `best` may be superseded (and
		// its predecessor recycled) while this loop runs, so no pointer
		// into a candidate's stage array may outlive a consider call.
		stStart, stEnd := best.Stages[bn.Stage].Start, best.Stages[bn.Stage].End
		for j := stStart; j < stEnd && budget > 0; j++ {
			op := &s.graph.Ops[j]
			if len(op.Dims) < 2 || best.Stages[bn.Stage].Setting(j).TP < 2 {
				continue // a dim flip on an unsharded op is a no-op
			}
			cur := best.Stages[bn.Stage].Setting(j).Dim
			for d := range op.Dims {
				if d == cur {
					continue
				}
				c := s.st.clone(best)
				c.MutOp(bn.Stage, j, func(op *config.OpSetting) { op.Dim = d })
				consider(c)
			}
		}
	}

	if !improved {
		return nil
	}
	return best
}
