// Package memo provides SnapMap, a concurrent read-optimized memo map
// for values that are pure functions of their keys.
package memo

import (
	"sync"
	"sync/atomic"
)

// Key is what SnapMap asks of a key type: equality and a hash of its
// own. Keys hash themselves because the table cannot: the runtime's
// map hash is not reachable from generic code at this module's go
// version, and a key knows which of its fields are already well mixed
// (a sub-hash) and which are small integers.
// Equal keys must hash equal; the better the hash spreads, the shorter
// the probe runs — correctness never depends on it.
type Key interface {
	comparable
	Hash() uint64
}

// Mix folds x into the running hash h and scrambles the result (the
// splitmix64 finaliser, a bijection of h^x), for Key implementations
// that combine integer fields.
func Mix(h, x uint64) uint64 {
	h ^= x
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// SnapMap is a concurrent memo map whose read path, for every stored
// key, is one atomic pointer load plus a probe over atomically
// published entry pointers — no locks, no read-modify-write atomics, no
// interface boxing — which is what search hot paths need: the
// performance model's stage cache and the profiler's collective
// multipliers are queried millions of times per search, and both
// sync.RWMutex (two atomic RMWs per lookup) and sync.Map (interface-
// keyed hashing, pointer chasing) showed up prominently in CPU profiles.
//
// It is one open-addressed, linearly probed table. A store takes the
// mutex, writes an immutable entry and publishes its pointer into a
// free slot; when the table would pass half full it is doubled first:
// the entry pointers are rehashed into a table twice the size and that
// table is published. Entries are never copied or modified, so a store
// is amortised O(1) and a map's allocation is linear in its entries. A
// reader still probing the pre-growth table sees every entry that table
// ever held and misses only newer ones. Correctness requires that every
// value is a pure function of its key: a racing reader that misses
// simply recomputes the same value and stores it again.
//
// The zero value is an empty map ready to use.
type SnapMap[K Key, V any] struct {
	tab atomic.Pointer[table[K, V]]
	n   atomic.Int64

	mu   sync.Mutex
	slab []entry[K, V] // unused entries of the current slab
}

// entry is immutable once its pointer is published.
type entry[K Key, V any] struct {
	hash uint64
	key  K
	val  V
}

// table always keeps a nil slot (it is at most half full), so every
// probe terminates.
type table[K Key, V any] struct {
	slots []atomic.Pointer[entry[K, V]]
	mask  uint64
}

const (
	minSlots = 8
	// maxSlab caps how many entries one slab allocation holds. Slabs
	// keep a store from costing a heap object each; the cap keeps the
	// unused tail of the last slab small beside the entries in use.
	maxSlab = 256
)

func newTable[K Key, V any](slots int) *table[K, V] {
	return &table[K, V]{
		slots: make([]atomic.Pointer[entry[K, V]], slots),
		mask:  uint64(slots - 1),
	}
}

// slot returns the slot holding k, or the free slot where k belongs.
// Only for a caller that holds the mutex or has not yet published t: a
// free slot stays free only until the next store.
func (t *table[K, V]) slot(h uint64, k K) *atomic.Pointer[entry[K, V]] {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if e := s.Load(); e == nil || (e.hash == h && e.key == k) {
			return s
		}
	}
}

// Load copies the memoized value for k into *dst and reports whether
// there is one; a miss leaves *dst as it was. Loading into the
// caller's value copies a large V once, not once out and once in.
func (m *SnapMap[K, V]) Load(k K, dst *V) bool {
	t := m.tab.Load()
	if t == nil {
		return false
	}
	h := k.Hash()
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		// Each slot is loaded once: between two loads a store could
		// fill a free slot with another key's entry.
		e := t.slots[i].Load()
		if e == nil {
			return false
		}
		if e.hash == h && e.key == k {
			*dst = e.val
			return true
		}
	}
}

// Store memoizes v for k.
func (m *SnapMap[K, V]) Store(k K, v V) {
	h := k.Hash()
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	n := int(m.n.Load())
	if t == nil {
		t = newTable[K, V](minSlots)
		m.tab.Store(t)
	} else if 2*(n+1) > len(t.slots) {
		t = m.growLocked(t)
	}
	if len(m.slab) == 0 {
		m.slab = make([]entry[K, V], min(max(n, minSlots/2), maxSlab))
	}
	e := &m.slab[0]
	m.slab = m.slab[1:]
	*e = entry[K, V]{h, k, v}
	s := t.slot(h, k)
	if s.Load() == nil {
		m.n.Add(1)
	}
	s.Store(e)
}

// growLocked publishes a table twice the size of old holding the same
// entry pointers. Callers hold m.mu, so old gains no entry meanwhile.
func (m *SnapMap[K, V]) growLocked(old *table[K, V]) *table[K, V] {
	t := newTable[K, V](2 * len(old.slots))
	for i := range old.slots {
		if e := old.slots[i].Load(); e != nil {
			t.slot(e.hash, e.key).Store(e)
		}
	}
	m.tab.Store(t)
	return t
}

// Len returns the number of memoized entries.
func (m *SnapMap[K, V]) Len() int { return int(m.n.Load()) }

// Reset empties the map.
func (m *SnapMap[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tab.Store(nil)
	m.n.Store(0)
	m.slab = nil
}
