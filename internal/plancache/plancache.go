// Package plancache caches completed plan searches for the acesod
// daemon. A plan is keyed by three independent content hashes — the
// model graph, the cluster (including faults), and the normalized
// search options — so an identical request returns the cached plan
// bytes without re-running the search, bit-identical to a fresh
// search (CFP's plan-generation-cost-avoidance framing, arXiv
// 2504.00598).
//
// The cache additionally keeps a *warm index* per (graph, options)
// pair: when an exact lookup misses but the same model was previously
// planned under a different cluster (the common shape after a device
// failure), the most recent such entry seeds the new search via
// core.Replan's warm-start path instead of starting cold.
//
// Concurrency contract: entries are immutable after Put.
package plancache

import (
	"container/list"
	"encoding/json"
	"math"
	"sort"
	"sync"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// Key identifies a plan request by content, not by name: two requests
// that build the same graph, cluster and options hash to the same Key
// regardless of how they were spelled.
type Key struct {
	Graph   uint64
	Cluster uint64
	Options uint64
}

// warmKey indexes entries that can warm-start each other: same model
// and search options, any cluster.
type warmKey struct {
	Graph   uint64
	Options uint64
}

// Entry is one cached plan. Plan holds the marshaled response body
// exactly as first produced, so cache hits are bit-identical to the
// original miss. Config is the winning configuration (read-only; a
// search publishes it frozen) retained for warm-starting related
// searches.
type Entry struct {
	Key      Key
	Plan     json.RawMessage
	Config   *config.Config
	Score    float64
	Explored int
}

// Stats counts cache outcomes since construction.
type Stats struct {
	Hits      int64 `json:"hits"`
	WarmHits  int64 `json:"warm_hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// Cache is a bounded LRU over Entries with the warm index layered on
// top. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *Entry
	entries map[Key]*list.Element
	warm    map[warmKey]*list.Element
	stats   Stats
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[Key]*list.Element),
		warm:    make(map[warmKey]*list.Element),
	}
}

// Get returns the entry for an exact key match, bumping its recency.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*Entry), true
}

// Warm returns the warm-start donor for k after an exact miss: the
// most recently inserted entry for the same (graph, options), when it
// was planned for a cluster other than k's and holds a config. It does
// not bump recency (the donor is not the requested plan) and counts a
// warm hit only when it returns one.
func (c *Cache) Warm(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.warm[warmKey{Graph: k.Graph, Options: k.Options}]
	if !ok {
		return nil, false
	}
	e := el.Value.(*Entry)
	if e.Key.Cluster == k.Cluster || e.Config == nil {
		return nil, false
	}
	c.stats.WarmHits++
	return e, true
}

// Put inserts or replaces the entry for e.Key, evicting the least
// recently used entry if the cache is over capacity.
func (c *Cache) Put(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++
	wk := warmKey{Graph: e.Key.Graph, Options: e.Key.Options}
	if el, ok := c.entries[e.Key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		c.warm[wk] = el
		return
	}
	el := c.ll.PushFront(e)
	c.entries[e.Key] = el
	c.warm[wk] = el
	if c.ll.Len() > c.cap {
		c.evictOldest()
	}
}

// evictOldest removes the LRU tail. Caller holds c.mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ev := el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.entries, ev.Key)
	wk := warmKey{Graph: ev.Key.Graph, Options: ev.Key.Options}
	if c.warm[wk] == el {
		delete(c.warm, wk)
	}
	c.stats.Evictions++
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

// Hasher folds typed values into a 64-bit FNV-1a state. Field *order*
// is the schema: hash the same fields in the same order to get
// comparable keys. Strings are length-prefixed so adjacent fields
// cannot alias.
type Hasher struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHasher returns a Hasher in the FNV-1a initial state.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

func (h *Hasher) byte(b byte) {
	h.h ^= uint64(b)
	h.h *= fnvPrime
}

// Int folds a signed integer.
func (h *Hasher) Int(v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h.byte(byte(u >> (8 * i)))
	}
}

// Float folds a float64 by bit pattern (so -0 and NaN payloads are
// distinguished exactly as stored).
func (h *Hasher) Float(v float64) {
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h.byte(byte(u >> (8 * i)))
	}
}

// Bool folds a boolean.
func (h *Hasher) Bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

// Str folds a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// Sum returns the current hash state.
func (h *Hasher) Sum() uint64 { return h.h }

// GraphHash hashes every field of the graph that the search or the
// performance model reads: identity, precision, batch geometry, and
// all per-op analytic costs including the partition-dimension table.
func GraphHash(g *model.Graph) uint64 {
	h := NewHasher()
	h.Str(g.Name)
	h.Int(int64(g.Precision))
	h.Int(int64(g.GlobalBatch))
	h.Int(int64(g.SeqLen))
	h.Int(int64(len(g.Ops)))
	for i := range g.Ops {
		o := &g.Ops[i]
		h.Int(int64(o.ID))
		h.Str(o.Name)
		h.Int(int64(o.Kind))
		h.Int(int64(o.Layer))
		h.Float(o.FwdFLOPs)
		h.Float(o.BwdFLOPsFactor)
		h.Float(o.Params)
		h.Float(o.ActElems)
		h.Float(o.WorkElems)
		h.Int(int64(len(o.Dims)))
		for _, d := range o.Dims {
			h.Str(d.Name)
			h.Int(int64(d.In))
			h.Int(int64(d.Out))
			h.Bool(d.AllReduceOut)
		}
	}
	return h.Sum()
}

// ClusterHash hashes the cluster's parametric description plus any
// attached fault spec. Degrade preserves the caller's device-fault
// order, so the hash sorts a copy by device rank first — two clusters
// with the same faults listed in different orders hash equal.
func ClusterHash(c *hardware.Cluster) uint64 {
	h := NewHasher()
	h.Int(int64(c.Nodes))
	h.Int(int64(c.DevicesPerNode))
	h.Float(c.FP16FLOPS)
	h.Float(c.FP32FLOPS)
	h.Float(c.MaxUtil)
	h.Float(c.MemoryBytes)
	h.Float(c.IntraBW)
	h.Float(c.InterBW)
	h.Float(c.IntraLat)
	h.Float(c.InterLat)
	h.Int(int64(c.TailDevices))
	// Device classes: every class field and the per-node layout feed
	// the key — two fleets with equal envelopes but different class
	// mixes must never share a cached plan.
	h.Int(int64(len(c.Classes)))
	for i := range c.Classes {
		d := &c.Classes[i]
		h.Str(d.Name)
		h.Float(d.FP16FLOPS)
		h.Float(d.FP32FLOPS)
		h.Float(d.MaxUtil)
		h.Float(d.MemoryBytes)
		h.Float(d.IntraBW)
		h.Float(d.InterBW)
		h.Float(d.IntraLat)
		h.Float(d.InterLat)
		h.Int(int64(d.Capacity))
		h.Float(d.HazardRate)
		h.Float(d.NoticeSeconds)
	}
	h.Int(int64(len(c.NodeClass)))
	for _, k := range c.NodeClass {
		h.Int(int64(k))
	}
	if f := c.Faults; f != nil {
		h.Bool(true)
		devs := make([]hardware.DeviceFault, len(f.Devices))
		copy(devs, f.Devices)
		sort.Slice(devs, func(a, b int) bool { return devs[a].Device < devs[b].Device })
		h.Int(int64(len(devs)))
		for _, d := range devs {
			h.Int(int64(d.Device))
			h.Bool(d.Dead)
			h.Float(d.FLOPSScale)
			h.Float(d.MemScale)
		}
		h.Float(f.IntraBWScale)
		h.Float(f.InterBWScale)
		h.Float(f.IntraLatScale)
		h.Float(f.InterLatScale)
	} else {
		h.Bool(false)
	}
	return h.Sum()
}
