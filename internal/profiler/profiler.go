// Package profiler is the analytic stand-in for the paper's
// profiling-based operator database (§3.3).
//
// The paper runs every operator 50 times on V100 GPUs under each
// partition method and stores the averaged time in a database that is
// reused across searches. Without GPUs we synthesize that database:
// operator times come from a roofline-style model (FLOPs over
// utilization-scaled peak throughput, plus a kernel-launch overhead),
// and every entry carries a small deterministic perturbation derived
// from its key — the stable measurement noise a profiled average would
// bake in. Entries are memoized exactly like the reusable database the
// paper describes, and can be saved/loaded as JSON.
package profiler

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"aceso/internal/collective"
	"aceso/internal/hardware"
	"aceso/internal/memo"
	"aceso/internal/model"
)

const (
	// launchOverhead is the fixed per-kernel dispatch cost (seconds).
	launchOverhead = 4e-6
	// halfUtilFLOPs is the per-kernel work at which a kernel reaches
	// half of MaxUtil; smaller kernels are launch/memory bound (a V100
	// matmul needs tens of GFLOPs before tensor cores saturate). This
	// is what makes over-sharding small operators — and over-splitting
	// microbatches — unprofitable (the Wide-ResNet case study in §5.4).
	halfUtilFLOPs = 10e9
	// perturbAmp is the amplitude of the deterministic per-entry
	// perturbation (±4%), standing in for profiling noise.
	perturbAmp = 0.04
)

// opKey identifies one operator-database entry. A struct key keeps
// lookups allocation-free on the search's hot path.
type opKey struct {
	name            string
	tp, dim         int
	samples, shards int
	backward        bool
	prec            hardware.Precision
}

// appendTo appends the key's serialized form to b. Byte-identical to
// the historical fmt.Sprintf("op|%s|%d|%d|%d|%d|%v|%v", ...) format —
// the perturbation hash and the Save/Load format both depend on these
// exact bytes — without fmt's reflection and allocations on the
// database-miss path.
func (k opKey) appendTo(b []byte) []byte {
	b = append(b, "op|"...)
	b = append(b, k.name...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.tp), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.dim), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.samples), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.shards), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, k.backward)
	b = append(b, '|')
	b = append(b, k.prec.String()...)
	return b
}

// String renders the key for the serialized database format (Save);
// hot-path code uses appendTo with a stack buffer instead.
func (k opKey) String() string {
	return string(k.appendTo(make([]byte, 0, 64)))
}

// Field widths of the packed key. tp and shards are parallelism
// degrees bounded by the cluster size (1<<13 covers 8192 devices),
// samples by the global batch, dim by an op's partition choices.
const (
	opkTPBits      = 13
	opkDimBits     = 8
	opkSamplesBits = 21
	opkShardsBits  = 13
)

// pack folds the numeric fields into one word — what a class's table
// is keyed by; the name selects the class. ok=false means a field
// exceeds its width — the caller must then compute without memoizing
// (the database would need the wide key), which stays correct because
// every entry is a pure function of its key.
func (k opKey) pack() (uint64, bool) {
	// One test for all five ranges: a negative field converts to a word
	// with its top bit set, which survives the shift like an overflow.
	if uint64(k.tp)>>opkTPBits|uint64(k.dim)>>opkDimBits|uint64(k.samples)>>opkSamplesBits|
		uint64(k.shards)>>opkShardsBits|uint64(k.prec)>>2 != 0 {
		return 0, false
	}
	b := uint64(k.tp)
	b = b<<opkDimBits | uint64(k.dim)
	b = b<<opkSamplesBits | uint64(k.samples)
	b = b<<opkShardsBits | uint64(k.shards)
	b <<= 3
	if k.backward {
		b |= 1 << 2
	}
	b |= uint64(k.prec) & 3
	return b, true
}

// unpack inverts pack (lossless for in-range fields), so Save can
// reconstruct the serialized key text from a class's name and a table
// word.
func unpack(name string, b uint64) opKey {
	out := opKey{name: name, prec: hardware.Precision(b & 3), backward: b&(1<<2) != 0}
	b >>= 3
	out.shards = int(b & (1<<opkShardsBits - 1))
	b >>= opkShardsBits
	out.samples = int(b & (1<<opkSamplesBits - 1))
	b >>= opkSamplesBits
	out.dim = int(b & (1<<opkDimBits - 1))
	b >>= opkDimBits
	out.tp = int(b)
	return out
}

// parseOpKey inverts String; reports ok=false on malformed input.
func parseOpKey(s string) (opKey, bool) {
	var k opKey
	var backward, prec string
	parts := strings.Split(s, "|")
	if len(parts) != 8 || parts[0] != "op" {
		return k, false
	}
	k.name = parts[1]
	if _, err := fmt.Sscanf(strings.Join(parts[2:], "|"), "%d|%d|%d|%d|%s",
		&k.tp, &k.dim, &k.samples, &k.shards, &backward); err != nil {
		return k, false
	}
	// backward holds "true|fp16"-style remainder; split again.
	bp := strings.Split(backward, "|")
	if len(bp) == 2 {
		backward, prec = bp[0], bp[1]
	} else {
		return k, false
	}
	k.backward = backward == "true"
	if prec == "fp32" {
		k.prec = hardware.FP32
	}
	return k, true
}

// Profiler produces operator and collective times for one cluster. It
// is safe for concurrent use by the parallel stage-count searches: the
// hit path of both memos — taken for every operator of every evaluated
// stage — is lock-free.
type Profiler struct {
	Cluster hardware.Cluster
	Seed    int64

	// db is swapped whole by Load, so a rejected file touches nothing
	// and a caller mid-OpTime finishes against the database it started on.
	db    atomic.Pointer[opDB]
	cmult memo.SnapMap[collKey, float64]
}

// collKey identifies a collective perturbation multiplier.
type collKey struct {
	kind  byte // 'r' all-reduce, 'g' all-gather, 'p' p2p
	group int
	pl    collective.Placement
}

// Hash implements memo.Key.
func (k collKey) Hash() uint64 {
	return memo.Mix(uint64(k.kind)<<56^uint64(k.pl)<<48, uint64(k.group))
}

// New returns a Profiler for the cluster with a deterministic seed.
func New(c hardware.Cluster, seed int64) *Profiler {
	p := &Profiler{Cluster: c, Seed: seed}
	p.db.Store(new(opDB))
	return p
}

// collPerturb memoizes the perturbation multiplier for a collective.
func (p *Profiler) collPerturb(kind byte, group int, pl collective.Placement) float64 {
	key := collKey{kind, group, pl}
	var m float64
	if p.cmult.Load(key, &m) {
		return m
	}
	// Byte-identical to fmt.Sprintf("%c|%d|%d", kind, group, pl): kind
	// is always an ASCII letter, so %c emits the byte itself.
	var buf [32]byte
	b := append(buf[:0], kind, '|')
	b = strconv.AppendInt(b, int64(group), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(pl), 10)
	m = p.perturb(b)
	p.cmult.Store(key, m)
	return m
}

// perturb returns a deterministic multiplier in [1-perturbAmp, 1+perturbAmp]
// derived from the entry key and the profiler seed. The hashed byte
// stream is identical to the historical fmt.Fprintf(h, "%d|%s", ...).
func (p *Profiler) perturb(key []byte) float64 {
	h := fnv.New64a()
	var buf [24]byte
	b := strconv.AppendInt(buf[:0], p.Seed, 10)
	b = append(b, '|')
	h.Write(b)
	h.Write(key)
	u := float64(h.Sum64()%(1<<20)) / float64(1<<20) // [0, 1)
	return 1 - perturbAmp + 2*perturbAmp*u
}

// OpTime returns the execution time of one operator invocation.
//
//	op       the operator
//	tp       tensor-parallel degree of the op
//	dim      index into op.Dims (the sharding choice)
//	samples  per-data-parallel-replica sample count of the microbatch
//	shards   effective compute sharding (tp when the op's tensors are
//	         split, 1 when the op runs replicated on every tp rank)
//	backward whether this is the backward pass
//	prec     numeric precision of the model
func (p *Profiler) OpTime(op *model.Op, tp, dim, samples, shards int, backward bool, prec hardware.Precision) float64 {
	if samples <= 0 || shards <= 0 {
		return 0
	}
	if tp <= 1 {
		// An unsharded op runs the same kernel regardless of its
		// nominal partition dim; normalize so the database agrees.
		dim = 0
	}
	key := opKey{op.Name, tp, dim, samples, shards, backward, prec}
	b, packable := key.pack()
	var db *opDB
	var c *opClass
	if packable {
		db = p.db.Load()
		c = db.class(op)
		if v, ok := c.load(b); ok {
			return v
		}
	}
	var t float64

	flops := op.FwdFLOPs * float64(samples) / float64(shards)
	if backward {
		flops *= op.BwdFLOPsFactor
	}
	peak := p.Cluster.PeakFLOPS(prec)
	util := p.Cluster.MaxUtil * flops / (flops + halfUtilFLOPs)
	t = launchOverhead
	if flops > 0 && util > 0 {
		t += flops / (peak * util)
	}
	var kb [96]byte
	t *= p.perturb(key.appendTo(kb[:0]))

	if packable {
		db.store(c, b, t)
	}
	return t
}

// AllReduce returns the profiled time of an all-reduce over the
// device range starting at first. The perturbation stream is keyed on
// (kind, group, placement) only — two same-shaped groups at different
// ranks share a multiplier, so homogeneous clusters are priced exactly
// as before; the range enters solely through the class-aware link.
func (p *Profiler) AllReduce(bytes float64, first, group int, pl collective.Placement) float64 {
	if group <= 1 || bytes <= 0 {
		return 0
	}
	t := collective.AllReduceAt(&p.Cluster, bytes, first, group, pl)
	return t * p.collPerturb('r', group, pl)
}

// AllGather returns the profiled time of an all-gather over the device
// range starting at first.
func (p *Profiler) AllGather(bytes float64, first, group int, pl collective.Placement) float64 {
	if group <= 1 || bytes <= 0 {
		return 0
	}
	t := collective.AllGatherAt(&p.Cluster, bytes, first, group, pl)
	return t * p.collPerturb('g', group, pl)
}

// P2P returns the profiled time of a stage-boundary transfer into the
// device pair starting at first.
func (p *Profiler) P2P(bytes float64, first int, pl collective.Placement) float64 {
	if bytes <= 0 {
		return 0
	}
	t := collective.P2PAt(&p.Cluster, bytes, first, pl)
	return t * p.collPerturb('p', 0, pl)
}

// Entries returns the number of memoized operator entries.
func (p *Profiler) Entries() int { return int(p.db.Load().n.Load()) }

// Save writes the memoized database as JSON, mirroring the reusable
// profiled database of §3.3.
func (p *Profiler) Save(w io.Writer) error {
	db := p.db.Load()
	out := make(map[string]float64, db.n.Load())
	db.forEach(func(name string, b uint64, v float64) {
		out[unpack(name, b).String()] = v
	})
	return json.NewEncoder(w).Encode(out)
}

// Load replaces the memoized database with entries read from r. Every
// entry must be a finite, non-negative time: a poisoned database (NaN,
// Inf or negative entries — e.g. a truncated or hand-edited JSON file)
// is rejected here so garbage never reaches the performance model,
// where a single NaN would silently corrupt every comparison it
// touches (NaN compares false against any bound).
func (p *Profiler) Load(r io.Reader) error {
	raw := make(map[string]float64)
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("profiler: load: %w", err)
	}
	db := new(opDB)
	for s, v := range raw {
		k, ok := parseOpKey(s)
		if !ok {
			return fmt.Errorf("profiler: load: malformed key %q", s)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("profiler: load: entry %q has invalid time %v", s, v)
		}
		b, packable := k.pack()
		if !packable {
			return fmt.Errorf("profiler: load: entry %q out of packable range", s)
		}
		// db is not yet published, so classLocked needs no lock.
		db.store(db.classLocked(k.name), b, v)
	}
	// Validation passed in full — only now touch the live database, so
	// a rejected file leaves the profiler unchanged.
	p.db.Store(db)
	return nil
}

// Prewarm fills the database for every operator of g under the given
// tensor-parallel degrees and per-replica sample counts, from
// GOMAXPROCS workers that each pull the next operator index. The paper
// profiles operators sequentially and notes that "the profiling
// overhead can be highly improved with good parallelization. We leave
// this as future work" — this is that parallelization.
func (p *Profiler) Prewarm(g *model.Graph, tps, samples []int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(g.Ops)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(g.Ops) {
					return
				}
				p.prewarmOp(&g.Ops[i], tps, samples, g.Precision)
			}
		}()
	}
	wg.Wait()
}

// prewarmOp queries every entry a search can ask of op: each tp degree
// and partition dim, sharded over tp and replicated, both passes.
func (p *Profiler) prewarmOp(op *model.Op, tps, samples []int, prec hardware.Precision) {
	for _, tp := range tps {
		for d := range op.Dims {
			for _, n := range samples {
				for _, bwd := range []bool{false, true} {
					p.OpTime(op, tp, d, n, tp, bwd, prec)
					if tp > 1 {
						p.OpTime(op, tp, d, n, 1, bwd, prec)
					}
				}
			}
		}
	}
}
