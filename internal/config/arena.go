package config

import "slices"

// Arena is a free-list of Config allocations for the search hot path,
// where the candidates the search keeps die by the thousand (pruned,
// outscored, superseded). An Arena is deliberately dumb: it does not track liveness. The
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

// CloneIn is Clone backed by an arena: a recycled Config's Stage and
// OpSetting slices are reused where their capacity suffices. The result
// is indistinguishable from Clone(): every field — including the
// memoized sub-hashes, key and hash — is copied or overwritten (by
// Restore), so no state of the recycled config's previous life
// survives.
func (c *Config) CloneIn(a *Arena) *Config {
	var out *Config
	if n := len(a.free); n > 0 {
		out = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.reuses++
	} else {
		out = new(Config)
	}
	// Reuse the recycled config's flat ops backing (see Config.flat).
	out.Stages = slices.Grow(out.Stages[:0], len(c.Stages))[:len(c.Stages)]
	out.flat = slices.Grow(out.flat[:0], c.numOps())[:c.numOps()]
	out.Restore(c, 0, len(c.Stages)-1)
	return out
}

// Restore copies into c stages lo through hi of base — bounds, devices,
// settings, sub-hashes — and base's microbatch, key and hash: the undo
// of an edit of a copy of base that moved no boundary outside lo..hi.
// The windows are re-cut from c's flat backing, so a shifted boundary
// is undone too; c's flat must hold base's op count. Allocates nothing.
func (c *Config) Restore(base *Config, lo, hi int) {
	off := 0
	for i := 0; i < lo; i++ {
		off += len(base.Stages[i].Ops)
	}
	for i := lo; i <= hi; i++ {
		st := &c.Stages[i]
		n := len(base.Stages[i].Ops)
		*st = base.Stages[i]
		st.Ops = c.flat[off : off+n : off+n]
		copy(st.Ops, base.Stages[i].Ops)
		off += n
	}
	c.MicroBatch, c.key, c.hash, c.hashOK = base.MicroBatch, base.key, base.hash, base.hashOK
}
