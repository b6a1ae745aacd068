package core

import "aceso/internal/config"

// ExtensionTable holds reconfiguration primitives beyond the paper's
// Table 1, following §3.2.1's note that "Aceso can be extended with
// new primitives for future research". inc-zr/dec-zr toggle ZeRO-1
// optimizer-state sharding across a stage's data-parallel groups:
// memory drops by (dp−1)/dp of the optimizer states at the cost of a
// parameter all-gather per iteration. They join the eligible set only
// when Options.ExtendedPrimitives is on, so the paper-faithful search
// space stays the default.
var ExtensionTable = []Primitive{
	{Name: "inc-zr", Mechanism: "zero", Comp: Flat, Comm: Up, Mem: Down,
		apply: toggle(true, true)},
	{Name: "dec-zr", Mechanism: "zero", Comp: Flat, Comm: Down, Mem: Up,
		apply: toggle(true, false)},
	// Sequence parallelism is close to a free lunch on the tp-heavy
	// stages it applies to (Korthikanti et al. 2022): replicated-region
	// activations and compute shrink by tp at equal communication
	// volume — which is why inc-sp is eligible for both compute and
	// memory bottlenecks and dec-sp for neither (it exists as the
	// inverse for completeness).
	{Name: "inc-sp", Mechanism: "sequence", Comp: Down, Comm: Flat, Mem: Down,
		apply: toggle(false, true)},
	{Name: "dec-sp", Mechanism: "sequence", Comp: Up, Comm: Flat, Mem: Up,
		apply: toggle(false, false)},
}

// extendedByResource memoizes EligibleExtended per resource. Built as
// fresh slices (not appended onto Eligible's memo, whose backing array
// must never be extended in place) so lookups are allocation-free and
// safe under the concurrent stage-count searches.
var extendedByResource = func() (m [3][]*Primitive) {
	for _, r := range []Resource{Comp, Comm, Mem} {
		m[r] = append([]*Primitive(nil), Eligible(r)...)
		for i := range ExtensionTable {
			if ExtensionTable[i].effect(r) == Down {
				m[r] = append(m[r], &ExtensionTable[i])
			}
		}
	}
	return m
}()

// EligibleExtended returns the primitives (base plus extension table)
// that decrease consumption of r.
func EligibleExtended(r Resource) []*Primitive {
	return extendedByResource[r]
}

// toggle returns the apply function that sets ZeRO (zero) or sequence
// parallelism to on for every op of the stage that can carry the flag
// (dp > 1 for ZeRO, tp > 1 for sequence parallelism). It yields nothing
// when no op would change.
func toggle(zero, on bool) func(s *searcher, cfg *config.Config, stage int, out []*config.Config) []*config.Config {
	flag := func(op *config.OpSetting) *bool {
		switch {
		case zero && op.DP > 1:
			return &op.ZeRO
		case !zero && op.TP > 1:
			return &op.SeqPar
		}
		return nil
	}
	return func(s *searcher, cfg *config.Config, stage int, out []*config.Config) []*config.Config {
		st := &cfg.Stages[stage]
		changed := false
		for j := range st.Ops {
			if f := flag(&st.Ops[j]); f != nil && *f != on {
				changed = true
			}
		}
		if !changed {
			return out
		}
		c := s.st.clone(cfg)
		c.MutStage(stage, func(st *config.Stage) {
			for j := range st.Ops {
				if f := flag(&st.Ops[j]); f != nil {
					*f = on
				}
			}
		})
		return append(out, c)
	}
}
