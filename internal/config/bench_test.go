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

// BenchmarkSubHashAfterMutOp is what a primitive costs the identity
// layer: one op of one stage changed, that stage's sub-hash refolded a
// word at a time.
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
