package core

import "aceso/internal/config"

// trialHooks, when a test sets them: exact sends every fine-tune trial
// to the exact estimate, won sees each trial that beat the best, and
// help publishes every multiHop batch and runs each of its trials in
// two halves (help.go), the owner's too.
var trialHooks struct {
	exact, help bool
	won         func(*config.Config)
}

// fineTuneCandidateCap bounds the op-level candidates evaluated per
// fine-tuning pass so that fine-tuning on 1K-layer models cannot
// starve the outer search.
const fineTuneCandidateCap = 96

// fineTune is the §4.2 op-level pass run after each improving
// iteration. It greedily tries two families of moves on the best so far
// and returns the improved configuration (nil when nothing helped):
//
//  1. Flexible tp/dp mixes inside a stage: starting from a handful of
//     suffix positions, convert [j, end) between tp- and dp-heavier
//     tilings of the same device count. Suffixes (rather than arbitrary
//     subranges) minimize the number of concurrency changes within the
//     stage, which is what the paper prefers to bound re-layout
//     collectives.
//  2. Flexible tensor-parallel dimensions: flip individual operators
//     to their alternative sharding dim (row↔col, in↔out channel).
//
// Each move rewrites one stage of the best so far, which is the base of
// the pass's node: a winner rebases it (searcher.try).
func (s *searcher) fineTune(cfg *config.Config) *config.Config {
	t := s.st.trial(s.pm, 0, cfg, s.estimate(nil, cfg))
	best, bestScore := cfg, s.score(cfg, t.est)
	t.budget = fineTuneCandidateCap
	tryMoves := func() {
		for i := range t.moves {
			c, _, sc := s.try(t, &t.moves[i], true, bestScore)
			if c == nil {
				continue
			}
			if trialHooks.won != nil {
				trialHooks.won(c)
			}
			// The superseded best is dead unless it is the caller's
			// input configuration.
			if best != cfg {
				s.st.recycle(best)
			}
			best, bestScore = c, sc
		}
	}

	for si := range cfg.Stages {
		if s.expired() || t.budget <= 0 {
			break
		}
		t.moves = suffixRetiles(t.moves[:0], cfg, si)
		tryMoves()
	}

	// Dim flips, bottleneck stage first for the remaining budget.
	for _, bn := range Bottlenecks(t.est) {
		if s.expired() || t.budget <= 0 {
			break
		}
		t.moves = s.dimFlips(t.moves[:0], best, bn.Stage)
		tryMoves()
	}

	if best == cfg {
		return nil
	}
	return best
}

// suffixRetiles appends fineTune's retiles of stage si of cfg: suffixes
// from the stage start and up to three interior positions, each toward
// dp, then tp. Whether one applies is read off the best it is tried on.
func suffixRetiles(moves []move, cfg *config.Config, si int) []move {
	n := cfg.Stages[si].NumOps()
	for _, f := range [...]int{1, 8, 4, 2} {
		if from := n - n/f; f == 1 || from > 0 && from < n {
			moves = append(moves, move{kind: retileOps, stage: si, n: from, on: true}, move{kind: retileOps, stage: si, n: from})
		}
	}
	return moves
}

// dimFlips appends fineTune's flips of stage's sharded ops in cfg, each
// to every other dim. A flip rewrites its own op's dim alone, so the
// flips of a stage can be read off the best before any is tried.
func (s *searcher) dimFlips(moves []move, cfg *config.Config, stage int) []move {
	st := &cfg.Stages[stage]
	for j := st.Start; j < st.End; j++ {
		set := st.Setting(j)
		if set.TP < 2 {
			continue // a dim flip on an unsharded op is a no-op
		}
		for d := range s.graph.Ops[j].Dims {
			if d != set.Dim {
				moves = append(moves, move{kind: flipDim, stage: stage, n: j, dim: d})
			}
		}
	}
	return moves
}
