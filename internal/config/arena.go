package config

// Arena is a free-list of Config allocations for the search hot path.
// The multi-hop search clones a configuration for every primitive
// trial and throws most of the clones away within the same iteration
// (rejected by validation, deduplicated, outscored); recycling them
// through an arena turns the dominant allocation source of the search
// (Clone was ~53% of allocated objects) into slice reuse.
//
// An Arena is deliberately dumb: it does not track liveness. The
// caller must guarantee that a Put config is no longer referenced
// anywhere — CloneIn overwrites every field of a recycled Config, so a
// stale reference would silently read another candidate's data. The
// search's candidate store (core.store) is the one caller that decides
// when that holds.
//
// Not safe for concurrent use.
type Arena struct {
	free   []*Config
	reuses int // CloneIn calls served from the free list
}

// Put returns a dead Config to the arena. A nil config is ignored.
func (a *Arena) Put(c *Config) {
	if c != nil {
		a.free = append(a.free, c)
	}
}

// Reuses returns how many CloneIn calls reused recycled memory instead
// of allocating.
func (a *Arena) Reuses() int { return a.reuses }

// CloneIn is Clone backed by an arena: when a recycled Config with
// enough capacity is available its Stage and OpSetting slices are
// reused, otherwise it falls back to fresh allocation. The result is
// indistinguishable from Clone(): every field — including the
// memoized sub-hashes, key and hash — is copied or overwritten, so no
// state of the recycled config's previous life survives.
func (c *Config) CloneIn(a *Arena) *Config {
	n := len(a.free)
	if n == 0 {
		return c.Clone()
	}
	out := a.free[n-1]
	a.free[n-1] = nil
	a.free = a.free[:n-1]
	a.reuses++
	out.MicroBatch = c.MicroBatch
	out.key = c.key
	out.hash = c.hash
	out.hashOK = c.hashOK
	if cap(out.Stages) >= len(c.Stages) {
		out.Stages = out.Stages[:len(c.Stages)]
	} else {
		out.Stages = make([]Stage, len(c.Stages))
	}
	// Reuse the recycled config's flat ops backing (see Config.flat);
	// per-stage windows get cap==len exactly like Clone, so appends on
	// one stage's Ops never clobber a neighbor.
	total := c.numOps()
	flat := out.flat
	if cap(flat) >= total {
		flat = flat[:total]
	} else {
		flat = make([]OpSetting, total)
	}
	copy(out.Stages, c.Stages)
	out.tile(flat)
	return out
}
