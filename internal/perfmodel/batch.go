package perfmodel

import (
	"slices"

	"aceso/internal/config"
)

// Batch evaluates many candidate configurations against one shared
// base configuration: BeginBatch records the base's per-stage memo keys
// once, and the stage walk behind every estimate copies a candidate's
// stage from the base estimate wherever its key equals the base's at
// the same index, instead of going through the stage cache's map.
//
// This is the "batched stage estimation" of DESIGN.md §5b: the
// multi-hop search evaluates all candidate primitives of one
// bottleneck against the same base configuration, and a primitive
// mutates only one or two stages — so almost every stage of every
// candidate is a copy of base metrics.
//
// A Batch is single-goroutine state owned by one searcher; the
// underlying Model remains shared and thread-safe.
type Batch struct {
	m     *Model
	base  *Estimate
	arena *EstArena
	keys  []stageKey
}

// BeginBatch (re)initializes b to evaluate candidates against the
// base configuration cfg and its estimate est (which must be
// m.Estimate(cfg)'s result; nil copies nothing). Results are carved out
// of arena (nil degrades to plain allocation). The key slice is reused
// across re-initializations, so a searcher can keep one Batch per
// recursion depth with no per-node allocation.
func (m *Model) BeginBatch(b *Batch, cfg *config.Config, est *Estimate, arena *EstArena) {
	b.m, b.base, b.arena = m, est, arena
	p, n := cfg.NumStages(), cfg.NumMicrobatches(m.Graph.GlobalBatch)
	b.keys = slices.Grow(b.keys[:0], p)
	firstDev, prevDevices := 0, 0
	for si := range cfg.Stages {
		st := &cfg.Stages[si]
		b.keys = append(b.keys, stageKey{st.SubHash(), cfg.MicroBatch, firstDev, min(p-si, n), prevDevices})
		firstDev += st.Devices
		prevDevices = st.Devices
	}
}

// Estimate predicts cfg, reusing the base estimate's per-stage metrics
// wherever cfg's stage keys equal the base's. A candidate with another
// pipeline depth or microbatch size matches no key; the result is
// identical to Model.Estimate's either way.
func (b *Batch) Estimate(cfg *config.Config) *Estimate {
	return b.m.walk(cfg, b.arena, b.base, b.keys)
}
