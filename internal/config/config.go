// Package config defines the parallel-training configuration that
// Aceso searches over: a pipeline-stage partition of the operator
// list, per-operator tensor/data-parallel settings and recomputation
// flags, and the global microbatch size (§3.1, Figure 2).
package config

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"aceso/internal/memo"
	"aceso/internal/model"
)

// FNV-1a constants. The fold below is byte-identical to
// fnv.New64a().Write(...).Sum64() without the hasher allocation and the
// string→[]byte copies, so Config.Hash — and with it every plan
// fingerprint and every hash-ordered tie-break — keeps its values.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mixSeed seeds every memo.Mix of SubHash and Key (the golden-ratio
// constant: memo.Mix maps an all-zero state to zero).
const mixSeed = 0x9e3779b97f4a7c15

// fnvBytes folds b into an FNV-1a state.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// OpSetting is the parallelization of a single operator inside its
// pipeline stage. TP·DP always equals the stage's device count; the
// fine-tuning pass (§4.2) may give different ops in one stage
// different TP/DP mixes and sharding dims.
type OpSetting struct {
	TP, DP int
	// Dim indexes the operator's PartitionDims (sharding choice).
	Dim int
	// Recompute releases this op's saved activations and re-runs its
	// forward during backward (§2.1).
	Recompute bool
	// ZeRO shards this op's optimizer states across its data-parallel
	// group (ZeRO stage 1), trading an extra parameter all-gather per
	// iteration for 1/dp the optimizer memory. This is an extension
	// primitive beyond the paper's Table 1 (§3.2.1 invites them);
	// only meaningful — and only valid — when DP > 1.
	ZeRO bool
	// SeqPar applies Megatron-style sequence parallelism: activations
	// the op would keep replicated across its tensor-parallel group
	// (layer norms, dropout) are sharded along the sequence dimension
	// instead, cutting their memory and compute by tp at equal
	// communication volume (all-reduce ⇒ reduce-scatter + all-gather).
	// Extension primitive; only valid when TP > 1.
	SeqPar bool
}

// SetTiling gives the op the tp × dp tiling and drops the flags the
// new tiling cannot carry: ZeRO needs dp > 1, SeqPar tp > 1.
func (o *OpSetting) SetTiling(tp, dp int) {
	o.TP, o.DP = tp, dp
	o.ZeRO = o.ZeRO && dp > 1
	o.SeqPar = o.SeqPar && tp > 1
}

// Stage is one pipeline stage: the contiguous operator range
// [Start, End) executed on Devices GPUs.
//
// Stages memoize their semantic sub-hash (asked for every candidate
// the search builds). The Config mutation helpers keep the memo: MutOp
// moves it in place by the edited operator's term, MutStage,
// InvalidateStage and Invalidate drop it. Code that writes the exported
// fields directly after a Key/Hash/SubHash call must invalidate by hand
// or the memos go stale (DESIGN.md §5b).
type Stage struct {
	Start, End int
	Devices    int
	Ops        []OpSetting // len == End-Start, indexed by op - Start

	// sub memoizes SubHash; 0 means no memo, so a sum that lands on 0
	// is refolded rather than stored or moved by a delta.
	sub uint64
}

// NumOps returns the number of operators in the stage.
func (s *Stage) NumOps() int { return s.End - s.Start }

// Setting returns the OpSetting for global operator index op.
// Mutating through the returned pointer bypasses the memos; use
// Config.MutOp, which moves them in place, on hashed configs.
func (s *Stage) Setting(op int) *OpSetting { return &s.Ops[op-s.Start] }

// invalidate drops the stage's memoized sub-hash.
func (s *Stage) invalidate() { s.sub = 0 }

// segScratch recycles Hash's segment buffer.
var segScratch = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// appendDec is strconv.AppendInt specialized for the small
// non-negative integers that dominate canonical segments (parallelism
// degrees and op indices; one or two digits almost always).
func appendDec(b []byte, v int) []byte {
	if v >= 0 {
		if v < 10 {
			return append(b, byte('0'+v))
		}
		if v < 100 {
			return append(b, byte('0'+v/10), byte('0'+v%10))
		}
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// appendSegment appends the stage's canonical segment to b. The byte
// format is frozen: Hash folds it, and committed hashes must not move.
func (s *Stage) appendSegment(b []byte) []byte {
	b = append(b, "s["...)
	b = appendDec(b, s.Start)
	b = append(b, ',')
	b = appendDec(b, s.End)
	b = append(b, ")x"...)
	b = appendDec(b, s.Devices)
	b = append(b, ':')
	for j := range s.Ops {
		op := &s.Ops[j]
		b = appendDec(b, op.TP)
		b = append(b, '.')
		b = appendDec(b, op.DP)
		b = append(b, '.')
		b = appendDec(b, op.Dim)
		b = append(b, '.')
		b = appendBit(b, op.Recompute)
		b = append(b, '.')
		b = appendBit(b, op.ZeRO)
		b = append(b, '.')
		b = appendBit(b, op.SeqPar)
		b = append(b, ',')
	}
	return append(b, ';')
}

// word packs the setting of global operator op into one 64-bit word:
// 22 bits of op index, 16 bits each for TP and DP, 7 for Dim and the
// three flag bits. The packing is injective while op < 2^22, TP and DP
// stay below 2^16 — which Validate's tp·dp = Devices bound guarantees
// for every valid stage of fewer than 65 536 devices — and 0 ≤ Dim < 128.
func (o *OpSetting) word(op int) uint64 {
	w := uint64(op)<<42 ^ uint64(o.TP)<<26 ^ uint64(o.DP)<<10 ^ uint64(o.Dim)<<3
	if o.Recompute {
		w ^= 1
	}
	if o.ZeRO {
		w ^= 2
	}
	if o.SeqPar {
		w ^= 4
	}
	return w
}

// term is operator op's summand in its stage's SubHash.
func (o *OpSetting) term(op int) uint64 { return memo.Mix(mixSeed, o.word(op)) }

// SubHash returns the stage's semantic sub-hash: two stages have equal
// sub-hashes iff their canonical segments (op range, device count and
// every op setting) are byte-identical, up to 64-bit collisions. It is
// additive over exactly the fields appendSegment writes: a mixed header
// of Start, End and Devices plus, mod 2^64, one term per operator, so
// an edit of one setting moves it by that operator's term difference
// (Config.MutOp). It builds no string. Memoized; see Stage.
func (s *Stage) SubHash() uint64 {
	if s.sub == 0 {
		h := memo.Mix(memo.Mix(memo.Mix(mixSeed, uint64(s.Start)), uint64(s.End)), uint64(s.Devices))
		for j := range s.Ops {
			h += s.Ops[j].term(s.Start + j)
		}
		s.sub = h
	}
	return s.sub
}

// appendBit appends '1' for true, '0' for false.
func appendBit(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// Config is a complete parallel configuration for one model on one
// cluster: an ordered pipeline partition plus the aggregate microbatch
// size. Stages occupy contiguous device ranks in order.
type Config struct {
	Stages []Stage
	// MicroBatch is the aggregate microbatch size: the number of
	// samples injected into the pipeline per microbatch. Each op's
	// data-parallel group splits it (per-replica samples =
	// MicroBatch / DP), preserving semantics when DP changes
	// (Figure 5(c)).
	MicroBatch int

	// key memoizes Key(), 0 meaning no memo as for Stage.sub; hash
	// memoizes Hash(), hashOK marks it valid. The mutation helpers below
	// keep both.
	key    uint64
	hash   uint64
	hashOK bool

	// flat remembers the full backing array behind the stages' Ops
	// slices (Clone carves per-stage windows out of one allocation,
	// clamping each window's capacity — which hides the backing's true
	// capacity from the arena). Total op count is invariant within one
	// search, so a recycled config's flat always fits the next clone and
	// CloneIn reuses it instead of allocating; ShiftBoundary re-cuts two
	// neighbouring windows of it.
	flat []OpSetting
}

// NumStages returns the pipeline depth.
func (c *Config) NumStages() int { return len(c.Stages) }

// TotalDevices returns the summed device count of all stages.
func (c *Config) TotalDevices() int {
	n := 0
	for i := range c.Stages {
		n += c.Stages[i].Devices
	}
	return n
}

// FirstDev returns the global rank of stage i's first device.
func (c *Config) FirstDev(i int) int {
	n := 0
	for j := 0; j < i; j++ {
		n += c.Stages[j].Devices
	}
	return n
}

// StageOf returns the index of the stage containing global op index
// op, or -1 if out of range.
func (c *Config) StageOf(op int) int {
	for i := range c.Stages {
		if op >= c.Stages[i].Start && op < c.Stages[i].End {
			return i
		}
	}
	return -1
}

// NumMicrobatches returns the number of microbatches per iteration.
func (c *Config) NumMicrobatches(globalBatch int) int {
	if c.MicroBatch <= 0 {
		return 0
	}
	return globalBatch / c.MicroBatch
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Validate checks every structural invariant of the configuration
// against its model and cluster size (DESIGN.md §6, invariant 1).
func (c *Config) Validate(g *model.Graph, totalDevices int) error {
	return c.validate(g, totalDevices, nil, nil)
}

// ValidateDelta is Validate for a configuration derived from base, a
// configuration that is itself valid for g and totalDevices: every
// O(stages) invariant is checked, and the per-operator invariants only
// in the stages whose SubHash differs from base's stage at the same
// index — the ones the derivation rewrote (an equal sub-hash means an
// equal stage, up to the 64-bit collision Key-based dedup accepts too).
// When the stage count or MicroBatch differ, or base is nil, every
// stage is checked. An invalid base is the blind spot: what is wrong in
// a stage the derivation did not touch stays unseen.
func (c *Config) ValidateDelta(g *model.Graph, totalDevices int, base *Config) error {
	return c.validate(g, totalDevices, base, nil)
}

// validate serves Validate (base nil) and ValidateDelta. Tests of what
// a delta skips pass opsRead, which receives the op settings read.
func (c *Config) validate(g *model.Graph, totalDevices int, base *Config, opsRead *int) error {
	if len(c.Stages) == 0 {
		return fmt.Errorf("config: no stages")
	}
	if c.MicroBatch <= 0 {
		return fmt.Errorf("config: MicroBatch = %d, want > 0", c.MicroBatch)
	}
	if g.GlobalBatch%c.MicroBatch != 0 {
		return fmt.Errorf("config: MicroBatch %d does not divide global batch %d",
			c.MicroBatch, g.GlobalBatch)
	}
	if got := c.TotalDevices(); got != totalDevices {
		return fmt.Errorf("config: stages use %d devices, cluster has %d", got, totalDevices)
	}
	if base != nil && (len(base.Stages) != len(c.Stages) || base.MicroBatch != c.MicroBatch) {
		base = nil
	}
	next := 0
	for i := range c.Stages {
		s := &c.Stages[i]
		if s.Start != next {
			return fmt.Errorf("config: stage %d starts at op %d, want %d", i, s.Start, next)
		}
		if s.End <= s.Start {
			return fmt.Errorf("config: stage %d is empty [%d, %d)", i, s.Start, s.End)
		}
		if s.End > len(g.Ops) {
			return fmt.Errorf("config: stage %d ends at op %d, model has %d", i, s.End, len(g.Ops))
		}
		next = s.End
		if !IsPow2(s.Devices) {
			return fmt.Errorf("config: stage %d has %d devices, want a power of two", i, s.Devices)
		}
		if len(s.Ops) != s.NumOps() {
			return fmt.Errorf("config: stage %d has %d settings for %d ops", i, len(s.Ops), s.NumOps())
		}
		if base != nil && s.SubHash() == base.Stages[i].SubHash() {
			continue
		}
		if opsRead != nil {
			*opsRead += len(s.Ops)
		}
		for j := range s.Ops {
			op := &s.Ops[j]
			if !IsPow2(op.TP) || !IsPow2(op.DP) {
				return fmt.Errorf("config: stage %d op %d: tp=%d dp=%d, want powers of two",
					i, s.Start+j, op.TP, op.DP)
			}
			if op.TP*op.DP != s.Devices {
				return fmt.Errorf("config: stage %d op %d: tp·dp = %d, want %d devices",
					i, s.Start+j, op.TP*op.DP, s.Devices)
			}
			if c.MicroBatch%op.DP != 0 {
				return fmt.Errorf("config: stage %d op %d: dp=%d does not divide microbatch %d",
					i, s.Start+j, op.DP, c.MicroBatch)
			}
			if op.ZeRO && op.DP < 2 {
				return fmt.Errorf("config: stage %d op %d: ZeRO requires dp > 1", i, s.Start+j)
			}
			if op.SeqPar && op.TP < 2 {
				return fmt.Errorf("config: stage %d op %d: sequence parallelism requires tp > 1", i, s.Start+j)
			}
			dims := g.Ops[s.Start+j].Dims
			if op.Dim < 0 || op.Dim >= len(dims) {
				return fmt.Errorf("config: stage %d op %d: dim %d out of range [0,%d)",
					i, s.Start+j, op.Dim, len(dims))
			}
		}
	}
	if next != len(g.Ops) {
		return fmt.Errorf("config: stages cover %d ops, model has %d", next, len(g.Ops))
	}
	return nil
}

// Clone returns a deep copy of the configuration. Memoized keys and
// hashes are carried over (they describe identical content), so a
// neighbor built by Clone plus MutStage re-folds only the mutated
// stage's sub-hash, and one built by Clone plus MutOp re-folds nothing.
//
// All stages' op settings share one backing array, sliced with
// cap==len per stage so an append on any stage's Ops reallocates
// instead of clobbering its neighbor, at three allocations per clone.
func (c *Config) Clone() *Config { return c.CloneIn(&Arena{}) }

// numOps returns the number of op settings across all stages.
func (c *Config) numOps() int {
	n := 0
	for i := range c.Stages {
		n += len(c.Stages[i].Ops)
	}
	return n
}

// tiled reports whether the stages' Ops windows lie back to back, in
// stage order, over the whole of c.flat — what Clone leaves behind.
func (c *Config) tiled() bool {
	off := 0
	for i := range c.Stages {
		ops := c.Stages[i].Ops
		if len(ops) > 0 && (off+len(ops) > len(c.flat) || &ops[0] != &c.flat[off]) {
			return false
		}
		off += len(ops)
	}
	return off == len(c.flat)
}

// ShiftBoundary moves the boundary between stages i and i+1 by k
// operators: k > 0 hands the first k operators of stage i+1 to stage i,
// k < 0 the last -k operators of stage i to stage i+1. The donor must
// keep at least one. No setting moves: the two stages' Ops windows are
// re-cut from the config's flat backing, which every Clone and CloneIn
// result tiles in stage order, so a shift writes no setting and
// allocates nothing; a config that does not tile its backing (one built
// from literals) is first repacked into a fresh one. The moved
// operators keep their settings. The result is their window in the
// receiving stage: both stages are invalidated, so the caller may
// rewrite it before the next Key, Hash or SubHash.
func (c *Config) ShiftBoundary(i, k int) []OpSetting {
	if !c.tiled() {
		*c = *c.Clone()
	}
	lo := 0
	for j := 0; j < i; j++ {
		lo += len(c.Stages[j].Ops)
	}
	a, b := &c.Stages[i], &c.Stages[i+1]
	mid := lo + len(a.Ops) + k
	hi := lo + len(a.Ops) + len(b.Ops)
	a.Ops = c.flat[lo:mid:mid]
	b.Ops = c.flat[mid:hi:hi]
	a.End += k
	b.Start += k
	c.InvalidateStage(i)
	c.InvalidateStage(i + 1)
	if k > 0 {
		return a.Ops[len(a.Ops)-k:]
	}
	return b.Ops[:-k]
}

// ---------- mutation helpers (the cache-invalidation contract) ----------
//
// The search hot path memoizes Key(), per-stage sub-hashes, and (in
// perfmodel) per-stage metrics keyed by those sub-hashes; Hash() and
// the canonical segments are memoized too. All of that is only sound if
// every post-construction mutation goes through the helpers below:
// MutOp moves the touched memos in place, the others drop them.
// Building a Config from literals and mutating it before the first
// Key/Hash/SubHash call needs no helpers — the memos are filled lazily.

// SetMicroBatch sets the aggregate microbatch size. Stage sub-hashes
// are unaffected (the microbatch is keyed separately everywhere).
func (c *Config) SetMicroBatch(mbs int) {
	c.MicroBatch = mbs
	c.key, c.hashOK = 0, false
}

// MutStage applies fn to stage i and invalidates its memoized hashes.
func (c *Config) MutStage(i int, fn func(*Stage)) {
	fn(&c.Stages[i])
	c.InvalidateStage(i)
}

// MutOp applies fn to the setting of global operator index op inside
// stage i and adds the operator's term difference to the stage's
// sub-hash and to the key where they are memoized: O(1), no refold.
// Hash is dropped.
func (c *Config) MutOp(i, op int, fn func(*OpSetting)) {
	s := &c.Stages[i]
	o := s.Setting(op)
	d := -o.term(op)
	fn(o)
	d += o.term(op)
	if s.sub != 0 {
		s.sub += d
	}
	if c.key != 0 {
		c.key += d
	}
	c.hashOK = false
}

// InvalidateStage drops stage i's memoized hashes (and the config's
// key and hash) after a direct mutation of the stage.
func (c *Config) InvalidateStage(i int) {
	c.Stages[i].invalidate()
	c.key, c.hashOK = 0, false
}

// Invalidate drops every memoized hash. The escape hatch for code that
// hand-mutates exported fields of an already-hashed configuration.
func (c *Config) Invalidate() {
	for i := range c.Stages {
		c.Stages[i].invalidate()
	}
	c.key, c.hashOK = 0, false
}

// Key returns the configuration's structural identity: two
// configurations have equal keys iff their canonical forms are
// byte-identical, up to 64-bit collisions. It is the mixed microbatch
// plus, mod 2^64, the stages' sub-hashes: a neighbor that rewrote one
// stage pays that stage's fold plus O(stages) additions, and one that
// edited operators through MutOp pays one term difference per operator.
// This is what the search deduplicates and memoizes estimates on
// (§4.3); it says nothing about order — the value is not Hash() and is
// not stable across versions, so it must never be persisted or used to
// rank. Memoized.
func (c *Config) Key() uint64 {
	if c.key == 0 {
		h := memo.Mix(mixSeed, uint64(c.MicroBatch))
		for i := range c.Stages {
			h += c.Stages[i].SubHash()
		}
		c.key = h
	}
	return c.key
}

// Hash returns the configuration's canonical hash: FNV-1a over the
// canonical form, a frozen value — plan fingerprints, simulator seeds
// and the determinism table carry it, and the search orders equal-
// scored candidates by it. It encodes every stage's canonical segment,
// so it is the cold path: ask Key for identity and call Hash only where
// the exact value matters. Memoized.
func (c *Config) Hash() uint64 {
	if c.hashOK {
		return c.hash
	}
	bp := segScratch.Get().(*[]byte)
	b := strconv.AppendInt(append((*bp)[:0], "mb="...), int64(c.MicroBatch), 10)
	h := fnvBytes(fnvOffset64, append(b, ';'))
	for i := range c.Stages {
		b = c.Stages[i].appendSegment(b[:0])
		h = fnvBytes(h, b)
	}
	*bp = b
	segScratch.Put(bp)
	c.hash, c.hashOK = h, true
	return h
}

// Freeze fills every memo — Key, Hash and each stage's sub-hash — so
// that no accessor writes afterwards and the configuration can be
// shared read-only across goroutines (and cloned from several at
// once). A later mutation helper thaws it. The one exception is a memo
// whose value is 0 (probability 2^-64), which is never stored: each
// read refolds it and writes the same 0.
func (c *Config) Freeze() {
	c.Key()
	c.Hash()
}

// Canonical returns the canonical string form, whose FNV-1a is Hash:
// two configurations are semantically identical iff their canonical
// forms are byte-identical (exposed for tests of the hash ⇔ string
// equivalence invariant).
func (c *Config) Canonical() string {
	b := strconv.AppendInt([]byte("mb="), int64(c.MicroBatch), 10)
	b = append(b, ';')
	for i := range c.Stages {
		b = c.Stages[i].appendSegment(b)
	}
	return string(b)
}

// String renders a compact human-readable summary, collapsing runs of
// identical op settings inside each stage.
func (c *Config) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mbs=%d |", c.MicroBatch)
	for i := range c.Stages {
		s := &c.Stages[i]
		fmt.Fprintf(&sb, " stage%d[ops %d-%d, %dGPU", i, s.Start, s.End-1, s.Devices)
		runStart := 0
		for j := 1; j <= len(s.Ops); j++ {
			if j < len(s.Ops) && s.Ops[j] == s.Ops[runStart] {
				continue
			}
			op := s.Ops[runStart]
			rc := ""
			if op.Dim != 0 {
				rc += fmt.Sprintf(",dim%d", op.Dim)
			}
			if op.Recompute {
				rc += ",rc"
			}
			if op.ZeRO {
				rc += ",zero"
			}
			if op.SeqPar {
				rc += ",sp"
			}
			if runStart == 0 && j == len(s.Ops) {
				fmt.Fprintf(&sb, ", tp%d×dp%d%s", op.TP, op.DP, rc)
			} else {
				fmt.Fprintf(&sb, ", ops%d-%d:tp%d×dp%d%s",
					s.Start+runStart, s.Start+j-1, op.TP, op.DP, rc)
			}
			runStart = j
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// RecomputedOps returns the number of recomputed ops in stage i.
func (c *Config) RecomputedOps(i int) int {
	n := 0
	for j := range c.Stages[i].Ops {
		if c.Stages[i].Ops[j].Recompute {
			n++
		}
	}
	return n
}
