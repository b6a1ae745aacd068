package profiler

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"aceso/internal/model"
)

// opDB is the operator database: one class per distinct operator name,
// each a small table keyed by the packed numeric word alone, found
// through an index by op.ID, so that a hit — the hottest lookup of a
// search — hashes no string and compares no string bytes (DESIGN.md
// §5g, Cold estimates).
//
// Reads take no lock: the index, a class's spill pointer and every slot
// word are atomics, and a slot is written value first, key second.
// Writers serialize on mu. As in memo.SnapMap, every value must be a
// pure function of its key: a reader that misses an entry being
// published recomputes the same float and stores it again.
type opDB struct {
	// index[op.ID] caches the class of the last operator asked under
	// that ID. It is a cache in front of byName, never the identity: a
	// slot's class is used only when its name equals the asking op's,
	// and anything else — a second graph whose IDs carry other names, a
	// hand-built model.Op — re-resolves by name.
	index atomic.Pointer[[]atomic.Pointer[opClass]]
	n     atomic.Int64 // entries, over all classes

	mu     sync.Mutex
	byName map[string]*opClass
	// Unused tails of the slabs classes and spill tables are carved from.
	classes []opClass
	slots   []slot
}

// maxIndexedID bounds the index (8 MB of pointers): an op whose ID is
// negative or beyond it is resolved by name on every call.
const maxIndexedID = 1 << 20

// opClass holds every entry of one operator name: in inline until the
// class outgrows it, then in spill, which doubles each time.
type opClass struct {
	name   string
	spill  atomic.Pointer[[]slot]
	inline [8]slot
	n      int // entries; guarded by opDB.mu
}

// slot is one entry of a class's open-addressed table: the packed key
// with slotUsed set (0 = free; pack leaves the top bits clear) and the
// time's IEEE bits.
type slot struct {
	key, val atomic.Uint64
}

const slotUsed = 1 << 63

// table returns the class's current table, a power of two slots.
func (c *opClass) table() []slot {
	if t := c.spill.Load(); t != nil {
		return *t
	}
	return c.inline[:]
}

// probe returns the slot holding key, or the free slot where key
// belongs; tables are at most three quarters full, so it terminates.
// The product's top bits depend on every key bit (Fibonacci hashing).
func probe(t []slot, key uint64) *slot {
	mask := len(t) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(uint64(mask))); ; i = (i + 1) & mask {
		if k := t[i].key.Load(); k == key || k == 0 {
			return &t[i]
		}
	}
}

// load returns the class's entry for the packed word b.
func (c *opClass) load(b uint64) (float64, bool) {
	s := probe(c.table(), b|slotUsed)
	// Re-reading the key is safe: a free slot that another key took in
	// between reads as a miss, and store re-probes under mu.
	if s.key.Load() != b|slotUsed {
		return 0, false
	}
	return math.Float64frombits(s.val.Load()), true
}

// class returns the class of op's name, creating it on first sight.
func (db *opDB) class(op *model.Op) *opClass {
	if ix := db.index.Load(); ix != nil && uint(op.ID) < uint(len(*ix)) {
		if c := (*ix)[op.ID].Load(); c != nil && c.name == op.Name {
			return c
		}
	}
	return db.resolve(op)
}

// resolve finds op's class by name and caches it under op.ID, doubling
// the index when the ID is beyond it.
func (db *opDB) resolve(op *model.Op) *opClass {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.classLocked(op.Name)
	if id := op.ID; id >= 0 && id < maxIndexedID {
		ix := db.index.Load()
		if ix == nil || id >= len(*ix) {
			var old []atomic.Pointer[opClass]
			if ix != nil {
				old = *ix
			}
			grown := make([]atomic.Pointer[opClass], max(id+1, 2*len(old), 64))
			for i := range old {
				grown[i].Store(old[i].Load())
			}
			ix = &grown
			db.index.Store(ix)
		}
		(*ix)[id].Store(c)
	}
	return c
}

// classLocked is the name → class map, the database's identity.
func (db *opDB) classLocked(name string) *opClass {
	c := db.byName[name]
	if c == nil {
		if db.byName == nil {
			db.byName = make(map[string]*opClass)
		}
		c = &take(&db.classes, 1, min(max(len(db.byName), 4), 256))[0]
		c.name = name
		db.byName[name] = c
	}
	return c
}

// store memoizes v for the packed word b in class c, first doubling a
// table that would pass three quarters full. A reader still probing the
// old table sees every entry it ever held and misses only newer ones.
func (db *opDB) store(c *opClass, b uint64, v float64) {
	key := b | slotUsed
	db.mu.Lock()
	defer db.mu.Unlock()
	t := c.table()
	s := probe(t, key)
	if s.key.Load() == key {
		return // a racing miss stored the same value first
	}
	if 4*(c.n+1) > 3*len(t) {
		grown := take(&db.slots, 2*len(t), min(max(int(db.n.Load()), 64), 1024))
		for i := range t {
			if k := t[i].key.Load(); k != 0 {
				g := probe(grown, k)
				g.val.Store(t[i].val.Load())
				g.key.Store(k)
			}
		}
		c.spill.Store(&grown)
		s = probe(grown, key)
	}
	s.val.Store(math.Float64bits(v))
	s.key.Store(key)
	c.n++
	db.n.Add(1)
}

// forEach calls fn for every entry, under mu: no store is halfway.
func (db *opDB) forEach(fn func(name string, b uint64, v float64)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, c := range db.byName {
		t := c.table()
		for i := range t {
			if k := t[i].key.Load(); k != 0 {
				fn(name, k&^slotUsed, math.Float64frombits(t[i].val.Load()))
			}
		}
	}
}

// take carves n zeroed items off the unused tail of *slab, starting a
// chunk of at least chunk items when the tail is short.
func take[T any](slab *[]T, n, chunk int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, chunk))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}
