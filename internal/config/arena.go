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
// stale reference would silently read another candidate's data. In
// the searcher this discipline is: only configs that were never
// inserted into the pool, the top-K list, or returned as the current/
// found configuration are recycled directly; pool-pruned configs park
// in a limbo list until the top-level iteration boundary (see
// core.searcher). The aliasing property test in internal/core pins
// this contract.
//
// Not safe for concurrent use; each searcher owns one.
type Arena struct {
	free []*Config

	// gets/puts/reuses are lifetime counters for observability and
	// tests: reuses counts CloneIn calls served from the free list.
	gets, puts, reuses int
}

// Put returns a dead Config to the arena. A nil config — and a nil
// arena — are ignored, so callers without an arena degrade to plain
// garbage collection.
func (a *Arena) Put(c *Config) {
	if a == nil || c == nil {
		return
	}
	a.puts++
	a.free = append(a.free, c)
}

// Get pops a recycled Config, or nil when the free list is empty (or
// the arena itself is nil). Exposed for tests that scribble on
// recycled memory; CloneIn is the production consumer.
func (a *Arena) Get() *Config {
	if a == nil {
		return nil
	}
	n := len(a.free)
	if n == 0 {
		return nil
	}
	c := a.free[n-1]
	a.free[n-1] = nil
	a.free = a.free[:n-1]
	a.gets++
	return c
}

// Len returns the current free-list size.
func (a *Arena) Len() int { return len(a.free) }

// Stats returns lifetime counters: configs handed out from the free
// list (gets), configs returned (puts), and CloneIn calls that reused
// recycled memory instead of allocating (reuses).
func (a *Arena) Stats() (gets, puts, reuses int) { return a.gets, a.puts, a.reuses }

// CloneIn is Clone backed by an arena: when a recycled Config with
// enough capacity is available its Stage and OpSetting slices are
// reused, otherwise it falls back to fresh allocation. The result is
// indistinguishable from Clone(): every field — including the
// memoized canonical segments, sub-hashes, key and hash — is copied or
// overwritten, so no state of the recycled config's previous life
// survives.
// (Stage value copies share the source's canon string; that is safe
// because a canonical segment is immutable once built — mutation
// helpers replace it rather than writing into it.)
//
// A nil arena degrades to Clone.
func (c *Config) CloneIn(a *Arena) *Config {
	if a == nil {
		return c.Clone()
	}
	out := a.Get()
	if out == nil {
		return c.Clone()
	}
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
