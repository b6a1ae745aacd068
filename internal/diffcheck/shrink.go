package diffcheck

// Shrink greedily minimizes a violating tuple: each pass tries a fixed
// list of reductions (halve ops, stages, batch, microbatch, devices;
// drop the fault spec, the mutations, the cost skew) and keeps any
// whose result still reproduces a violation of the same kind. Passes
// repeat until none of the reductions apply — a local minimum, which
// in practice is a tuple small enough to step through by hand. The
// returned step count is the number of accepted reductions (mirrored
// into the DiffShrinkStepsTotal metric by the suites).
func Shrink(t Tuple, kind string, effectsOn bool) (Tuple, int) {
	return shrinkWith(t, func(c Tuple) bool {
		findings, _ := Check(&c, effectsOn)
		for _, f := range findings {
			if f.Kind == kind {
				return true
			}
		}
		return false
	})
}

// shrinkWith is the greedy engine behind Shrink, parameterized by an
// arbitrary reproduction predicate (t itself is assumed to reproduce).
func shrinkWith(t Tuple, reproduces func(Tuple) bool) (Tuple, int) {
	steps := 0
	for {
		improved := false
		for _, cand := range reductions(t) {
			if reproduces(cand) {
				t = cand
				steps++
				improved = true
				break // restart the pass from the smallest reduction
			}
		}
		if !improved {
			return t, steps
		}
	}
}

// reductions lists the candidate one-step reductions of t, most
// aggressive first. Unconstructible results are fine: Check reports a
// "build" finding for them, which never matches the violation kind
// being shrunk, so the shrinker simply rejects the step.
func reductions(t Tuple) []Tuple {
	var out []Tuple
	add := func(mut func(*Tuple)) {
		c := t
		if c.Fault != nil {
			f := *c.Fault // don't alias the parent's spec
			c.Fault = &f
		}
		mut(&c)
		out = append(out, c)
	}
	if t.Ops > 1 {
		add(func(c *Tuple) { c.Ops /= 2 })
		add(func(c *Tuple) { c.Ops-- })
	}
	if t.Stages > 1 {
		add(func(c *Tuple) { c.Stages /= 2 })
	}
	if t.GlobalBatch > 1 {
		add(func(c *Tuple) { c.GlobalBatch /= 2 })
	}
	if t.MicroBatch > 1 {
		add(func(c *Tuple) { c.MicroBatch /= 2 })
	}
	if t.Devices > 1 {
		add(func(c *Tuple) { c.Devices /= 2; c.Fault = nil })
	}
	if t.Fault != nil {
		add(func(c *Tuple) { c.Fault = nil })
	}
	if t.MutSeed != 0 {
		add(func(c *Tuple) { c.MutSeed = 0 })
	}
	if t.Slope != 0 {
		add(func(c *Tuple) { c.Slope = 0 })
	}
	return out
}
