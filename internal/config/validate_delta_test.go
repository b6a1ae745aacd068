package config

import (
	"math/rand"
	"testing"

	"aceso/internal/model"
)

// The mutations below are the search primitives' (internal/core), which
// this package cannot import, rewritten on the config API: each clones
// its input, rewrites one stage or two through the invalidating
// helpers, and may well produce an invalid configuration — the search
// relies on validation to throw those away.

// mutMoveOps shifts k ops across the boundary between stages from and
// from+dir; moved ops adopt the receiving stage's tp/dp and keep their
// own dim (core.moveOps).
func mutMoveOps(c *Config, from, dir, k int) *Config {
	to := from + dir
	if to < 0 || to >= len(c.Stages) || k <= 0 || c.Stages[from].NumOps() <= k {
		return nil
	}
	out := c.Clone()
	src, dst := &out.Stages[from], &out.Stages[to]
	if dir < 0 {
		tpl := dst.Ops[len(dst.Ops)-1]
		for _, o := range src.Ops[:k] {
			tpl.Dim = o.Dim
			dst.Ops = append(dst.Ops, tpl)
		}
		src.Ops = src.Ops[k:]
		src.Start += k
		dst.End += k
	} else {
		tpl := dst.Ops[0]
		add := make([]OpSetting, 0, k+len(dst.Ops))
		for _, o := range src.Ops[len(src.Ops)-k:] {
			tpl.Dim = o.Dim
			add = append(add, tpl)
		}
		dst.Ops = append(add, dst.Ops...)
		src.Ops = src.Ops[:len(src.Ops)-k]
		src.End -= k
		dst.Start -= k
	}
	out.InvalidateStage(from)
	out.InvalidateStage(to)
	return out
}

// mutMoveDevices halves stage from and doubles stage to, each through
// dp or tp (core.tradeDevices).
func mutMoveDevices(c *Config, from, to int, useDP bool) *Config {
	if from == to || c.Stages[from].Devices < 2 {
		return nil
	}
	out := c.Clone()
	out.MutStage(from, func(s *Stage) {
		for j := range s.Ops {
			if useDP && s.Ops[j].DP > 1 || s.Ops[j].TP < 2 {
				s.Ops[j].DP /= 2
			} else {
				s.Ops[j].TP /= 2
			}
		}
		s.Devices /= 2
	})
	out.MutStage(to, func(s *Stage) {
		for j := range s.Ops {
			if useDP {
				s.Ops[j].DP *= 2
			} else {
				s.Ops[j].TP *= 2
			}
		}
		s.Devices *= 2
	})
	return out
}

// mutRetile converts the ops [from, end) of a stage between tp- and
// dp-heavier tilings of the same device count (core.retileRange).
func mutRetile(c *Config, stage, from int, toDP bool) *Config {
	out := c.Clone()
	out.MutStage(stage, func(s *Stage) {
		for j := from; j < len(s.Ops); j++ {
			if toDP {
				s.Ops[j].TP /= 2
				s.Ops[j].DP *= 2
			} else {
				s.Ops[j].DP /= 2
				s.Ops[j].TP *= 2
			}
		}
	})
	return out
}

// mutOp rewrites one op setting.
func mutOp(c *Config, stage, j int, fn func(*OpSetting)) *Config {
	out := c.Clone()
	out.MutOp(stage, out.Stages[stage].Start+j, fn)
	return out
}

// randomMutation draws one mutation of c; nil when the draw is illegal.
func randomMutation(r *rand.Rand, g *model.Graph, c *Config) *Config {
	si := r.Intn(len(c.Stages))
	j := r.Intn(c.Stages[si].NumOps())
	switch r.Intn(9) {
	case 0:
		return mutMoveOps(c, si, 2*r.Intn(2)-1, 1+r.Intn(3))
	case 1:
		return mutMoveDevices(c, si, r.Intn(len(c.Stages)), r.Intn(2) == 0)
	case 2:
		return mutRetile(c, si, j, r.Intn(2) == 0)
	case 3:
		return mutOp(c, si, j, func(o *OpSetting) { o.Recompute = !o.Recompute })
	case 4:
		dims := len(g.Ops[c.Stages[si].Start+j].Dims)
		return mutOp(c, si, j, func(o *OpSetting) { o.Dim = (o.Dim + 1) % dims })
	case 5:
		return mutOp(c, si, j, func(o *OpSetting) { o.ZeRO = !o.ZeRO })
	case 6:
		return mutOp(c, si, j, func(o *OpSetting) { o.SeqPar = !o.SeqPar })
	case 7:
		out := c.Clone()
		out.SetMicroBatch(c.MicroBatch * 2)
		return out
	default:
		out := c.Clone()
		out.SetMicroBatch(max(c.MicroBatch/2, 1))
		return out
	}
}

// violations are hand-written breaches of one invariant each, placed in
// stage si through the invalidating helpers — a stage the candidate
// changed, so the delta must visit it.
var violations = []struct {
	name  string
	plant func(c *Config, si int)
}{
	{"tp·dp ≠ devices", func(c *Config, si int) {
		c.MutOp(si, c.Stages[si].Start, func(o *OpSetting) { o.TP *= 2 })
	}},
	{"dp ∤ microbatch", func(c *Config, si int) {
		// All-dp tiling of a stage with more devices than the microbatch
		// divides into; on a stage where it does divide, shift the tiling
		// so that tp·dp breaks instead.
		c.MutStage(si, func(s *Stage) {
			dp := s.Devices
			if c.MicroBatch%dp == 0 {
				dp = 2 * c.MicroBatch
			}
			for j := range s.Ops {
				s.Ops[j] = OpSetting{TP: 1, DP: dp}
			}
		})
	}},
	{"ZeRO with dp = 1", func(c *Config, si int) {
		c.MutOp(si, c.Stages[si].Start, func(o *OpSetting) { o.TP, o.DP, o.ZeRO = o.TP*o.DP, 1, true })
	}},
	{"SeqPar with tp = 1", func(c *Config, si int) {
		c.MutOp(si, c.Stages[si].Start, func(o *OpSetting) { o.TP, o.DP, o.SeqPar = 1, o.TP*o.DP, true })
	}},
	{"dim out of range", func(c *Config, si int) {
		c.MutOp(si, c.Stages[si].End-1, func(o *OpSetting) { o.Dim = 99 })
	}},
	{"negative dim", func(c *Config, si int) {
		c.MutOp(si, c.Stages[si].Start, func(o *OpSetting) { o.Dim = -1 })
	}},
	{"moved boundary leaves a gap", func(c *Config, si int) {
		c.MutStage(si, func(s *Stage) {
			if s.NumOps() > 1 {
				s.End--
				s.Ops = s.Ops[:len(s.Ops)-1]
			} else {
				s.Start++ // an empty stage, and a gap before it
				s.Ops = nil
			}
		})
	}},
}

// TestValidateDeltaAgreesWithValidate is the property ValidateDelta is
// used under: whenever base is valid, a configuration derived from it
// passes ValidateDelta(base) exactly when it passes Validate — over the
// zoo × 1–32 stages, along random walks of the primitives' mutations
// (each valid candidate becomes the next base), and for a violation of
// every per-operator invariant planted in a stage the candidate changed.
func TestValidateDeltaAgreesWithValidate(t *testing.T) {
	const devices = 32
	agreed, rejected := 0, 0
	for gi, g := range zoo(t) {
		for stages := 1; stages <= 32; stages++ {
			base, err := Balanced(g, devices, stages, 1)
			if err != nil {
				continue // more stages than the split allows
			}
			if err := base.Validate(g, devices); err != nil {
				t.Fatalf("%s/%d: Balanced is invalid: %v", g.Name, stages, err)
			}
			r := rand.New(rand.NewSource(int64(gi*100 + stages)))
			for step := 0; step < 40; step++ {
				c := randomMutation(r, g, base)
				if c == nil {
					continue
				}
				full := c.Validate(g, devices)
				delta := c.ValidateDelta(g, devices, base)
				if (full == nil) != (delta == nil) {
					t.Fatalf("%s/%d step %d: Validate = %v, ValidateDelta = %v\nbase %s\ncand %s",
						g.Name, stages, step, full, delta, base, c)
				}
				agreed++
				if full != nil {
					rejected++
					continue
				}
				base = c
			}
			for _, v := range violations {
				c := base.Clone()
				v.plant(c, r.Intn(len(c.Stages)))
				full := c.Validate(g, devices)
				delta := c.ValidateDelta(g, devices, base)
				if full == nil || delta == nil {
					t.Errorf("%s/%d: %s: Validate = %v, ValidateDelta = %v", g.Name, stages, v.name, full, delta)
				}
			}
		}
	}
	// The walk must exercise both answers, or the property is vacuous.
	if rejected < agreed/20 || rejected > agreed*19/20 {
		t.Errorf("%d of %d random candidates were invalid: the walk is one-sided", rejected, agreed)
	}
}

// TestValidateDeltaBlindSpot documents what ValidateDelta does not see:
// a violation in a stage of an *invalid base* that the candidate left
// alone. The search never meets it — every base it passes was validated
// itself, starting from the task's seed — and anyone else calls Validate.
func TestValidateDeltaBlindSpot(t *testing.T) {
	g := model.Uniform(64, 1e9, 1e6, 1e5, 64)
	base := mustBalanced(t, g, 8, 4, 1)
	base.MutOp(3, base.Stages[3].Start, func(o *OpSetting) { o.Dim = 99 })
	if err := base.Validate(g, 8); err == nil {
		t.Fatal("the planted violation does not invalidate base")
	}
	c := mutOp(base, 0, 0, func(o *OpSetting) { o.Recompute = true })
	if err := c.Validate(g, 8); err == nil {
		t.Error("Validate missed the violation inherited from base")
	}
	if err := c.ValidateDelta(g, 8, base); err != nil {
		t.Errorf("ValidateDelta re-read a stage equal to base's: %v", err)
	}
	// The same violation in the stage the candidate did change is seen.
	c = mutOp(base, 3, 1, func(o *OpSetting) { o.Recompute = true })
	if err := c.ValidateDelta(g, 8, base); err == nil {
		t.Error("ValidateDelta skipped a changed stage")
	}
}

// TestValidateDeltaVisits counts the op settings a validation reads:
// the changed stages' only, and all of them whenever the stage count or
// the microbatch differ from base's, or there is no base.
func TestValidateDeltaVisits(t *testing.T) {
	g := model.Uniform(1024, 1e9, 1e6, 1e5, 64)
	base := mustBalanced(t, g, 32, 32, 2)
	other := mustBalanced(t, g, 32, 16, 2)
	moved := mutMoveOps(base, 4, +1, 2)
	mbs := base.Clone()
	mbs.SetMicroBatch(4)
	for _, tc := range []struct {
		name string
		c    *Config
		base *Config
		want int
	}{
		{"no base", base, nil, 1024},
		{"unchanged clone", base.Clone(), base, 0},
		{"one op of stage 7", mutOp(base, 7, 3, func(o *OpSetting) { o.Recompute = true }), base, base.Stages[7].NumOps()},
		{"two ops across a boundary", moved, base, base.Stages[4].NumOps() + base.Stages[5].NumOps()},
		{"microbatch changed", mbs, base, 1024},
		{"stage count changed", base, other, 1024},
	} {
		got := 0
		if err := tc.c.validate(g, 32, tc.base, &got); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: read %d op settings, want %d", tc.name, got, tc.want)
		}
	}
}

// TestValidateRejectsStagePastModel: a stage that ends beyond the
// graph's last op is an error, not an index panic.
func TestValidateRejectsStagePastModel(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 1)
	last := &c.Stages[1]
	last.End += 2
	last.Ops = append(last.Ops, last.Ops[0], last.Ops[0])
	if err := c.Validate(g, 8); err == nil {
		t.Error("stage past the model's last op not caught")
	}
}
