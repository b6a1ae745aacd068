package config

import (
	"testing"

	"aceso/internal/model"
)

// The identity layer's benchmarks, on the configuration the search-deep
// workload starts its deepest pipeline from: GPT-3 2.6B split into 16
// stages over 16 devices. `make ci` runs them once each so they cannot
// rot; DESIGN.md §5b quotes their numbers.

var sinkHash uint64

func benchConfig(b *testing.B) *Config {
	b.Helper()
	g, err := model.GPT3("2.6B")
	if err != nil {
		b.Fatal(err)
	}
	c, err := Balanced(g, 16, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	c.Freeze()
	return c
}

// BenchmarkConfigKey is Key with every stage's sub-hash memoized and
// only the config's own memo dropped: the O(stages) mix each search
// neighbor pays on top of its one mutated stage.
func BenchmarkConfigKey(b *testing.B) {
	c := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetMicroBatch(1 + i&1)
		sinkHash += c.Key()
	}
}

// BenchmarkSubHashAfterMutOp is what a per-operator edit costs the
// identity layer: one op of one stage changed through MutOp, which moves
// the stage's memoized sub-hash by the op's term difference.
func BenchmarkSubHashAfterMutOp(b *testing.B) {
	c := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := i % len(c.Stages)
		c.MutOp(si, c.Stages[si].Start, func(o *OpSetting) { o.Recompute = !o.Recompute })
		sinkHash += c.Stages[si].SubHash()
	}
}

// BenchmarkRungKeys is what one recompute ladder costs the identity
// layer, as the search climbs it: on one stage, rung k = 1, 2, 4, …
// flips the Recompute flags of ops [k/2, k) through MutOp and reads the
// config's Key; the stage is then restored from its base.
func BenchmarkRungKeys(b *testing.B) {
	base := benchConfig(b)
	c := base.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := i % len(c.Stages)
		st := &c.Stages[si]
		for k := 1; k <= st.NumOps(); k *= 2 {
			for op := st.Start + k/2; op < st.Start+k; op++ {
				c.MutOp(si, op, func(o *OpSetting) { o.Recompute = true })
			}
			sinkHash += c.Key()
		}
		c.Restore(base, si, si)
	}
}

// BenchmarkHashCanonicalCold is the tie path at its worst: no canonical
// segment memoized, so Hash builds all sixteen and folds them through
// FNV-1a.
func BenchmarkHashCanonicalCold(b *testing.B) {
	c := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invalidate()
		sinkHash += c.Hash()
	}
}

// BenchmarkShiftBoundary is what moving an op across a boundary costs a
// clone: two windows re-cut in its own backing and both stages
// invalidated — no setting copied, nothing allocated. Each pair of
// iterations moves one op into a stage and back.
func BenchmarkShiftBoundary(b *testing.B) {
	c := benchConfig(b).Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := i / 2 % (len(c.Stages) - 1)
		sinkHash += uint64(len(c.ShiftBoundary(si, 1-2*(i&1))))
	}
}

// scaleConfigs returns search-scale's deepest start (10 240 ops in 32
// stages on 4 096 devices) and a neighbor with one op of one stage
// rewritten — what a fine-tune candidate is to the best so far.
func scaleConfigs(b *testing.B) (g *model.Graph, base, cand *Config) {
	b.Helper()
	g = model.Uniform(10240, 1e9, 1e6, 1e5, 1024)
	base, err := Balanced(g, 4096, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	base.Freeze()
	cand = base.Clone()
	cand.MutOp(9, cand.Stages[9].Start, func(o *OpSetting) { o.Dim = 1 })
	cand.Key()
	return g, base, cand
}

// BenchmarkValidate reads all 10 240 op settings of the neighbor.
func BenchmarkValidate(b *testing.B) {
	g, _, cand := scaleConfigs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cand.Validate(g, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateDelta reads the one changed stage of 32.
func BenchmarkValidateDelta(b *testing.B) {
	g, base, cand := scaleConfigs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cand.ValidateDelta(g, 4096, base); err != nil {
			b.Fatal(err)
		}
	}
}
