package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// sample is one op: wall-clock start and end in seconds since the
// phase began, the bytes the process had allocated in total when it
// ended, and whether it failed. It holds no pointer, so that it can
// live outside the Go heap.
type sample struct {
	start, end float64
	alloc      uint64
	failed     bool
}

// maxSamples is the room a phase has for its samples before append
// falls back to the heap: 70 000 ops a second for a 30 s phase.
const maxSamples = 1 << 21

// newSampleBuf maps room for a phase's samples outside the Go heap.
// serve-hit records 85 000 samples a run; on the heap they are live
// data that grows with the machine's speed, the collector's target
// doubles it, and rss_mb and the collector's pacing — both part of what
// is measured — follow the benchmark's own bookkeeping. Mapped pages
// cost nothing until they are written.
func newSampleBuf() ([]sample, error) {
	mem, err := syscall.Mmap(-1, 0, maxSamples*int(unsafe.Sizeof(sample{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map sample buffer: %w", err)
	}
	return unsafe.Slice((*sample)(unsafe.Pointer(unsafe.SliceData(mem))), maxSamples)[:0], nil
}

// freeSampleBuf unmaps a buffer from newSampleBuf, unless append has
// outgrown it and moved the samples to the heap.
func freeSampleBuf(s []sample) error {
	if cap(s) != maxSamples {
		return nil
	}
	full := s[:maxSamples]
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(full))), maxSamples*int(unsafe.Sizeof(sample{}))))
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// durations returns the op wall times of the samples that succeeded.
func durations(s []sample) []float64 {
	out := make([]float64, 0, len(s))
	for _, x := range s {
		if !x.failed {
			out = append(out, x.end-x.start)
		}
	}
	return out
}

// batches is how many batches a phase's samples are cut into: about a
// second each at BENCHMARK.json's run_seconds.
const batches = 24

// quietQuartile is behind op_s_p50, op_s_p95, ops_per_s and
// alloc_mb_per_op. The samples are put in completion order and cut into
// up to n batches of equal count; a batch's p50 and p95 are those of its
// op times, its rate is its op count over the time since the previous
// batch's last completion, its allocation the bytes allocated in that
// time over its op count.
//
// Reported are the first quartile of the batches' p50s, the first
// quartile of their p95s and the third quartile of their rates: the
// speed of the quiet quarter of the run. On a shared host a neighbour
// only ever takes time away, for seconds at a stretch, so the slower
// batches say more about the host than about the code; a regression in
// the code slows every batch and moves the quartile by as much as it
// would move the median. Allocation does not depend on the host and is
// the median batch's: one of serve-miss's rare searches that allocate
// ten times the usual costs one batch instead of shifting a mean.
// alloc0 is the allocation counter when the phase began.
func quietQuartile(s []sample, alloc0 uint64, n int) (p50, p95, opsPerS, bytesPerOp float64) {
	byEnd := append([]sample(nil), s...)
	sort.Slice(byEnd, func(a, b int) bool { return byEnd[a].end < byEnd[b].end })
	n = min(n, len(byEnd))
	var medians, tails, rates, allocs []float64
	prevEnd, prevAlloc := 0.0, alloc0
	for b := 0; b < n; b++ {
		batch := byEnd[b*len(byEnd)/n : (b+1)*len(byEnd)/n]
		d, last := durations(batch), batch[len(batch)-1]
		medians = append(medians, median(d))
		tails = append(tails, quantile(d, 0.95))
		if last.end > prevEnd {
			rates = append(rates, float64(len(batch))/(last.end-prevEnd))
		}
		allocs = append(allocs, float64(last.alloc-prevAlloc)/float64(len(batch)))
		prevEnd, prevAlloc = last.end, last.alloc
	}
	return quantile(medians, 0.25), quantile(tails, 0.25), quantile(rates, 0.75), median(allocs)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method) — the
// figure the driver holds against each metric's bound.
func quartileSpread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// residentMB reads the process's resident set, in 10^6 bytes.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm %q: %w", raw, err)
	}
	return resident * float64(os.Getpagesize()) / 1e6, nil
}

// rssSampler reads the resident set every 50 ms until stopped.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				r.err = err
				return
			}
			r.mb = append(r.mb, mb)
			select {
			case <-tick.C:
			case <-r.stop:
				return
			}
		}
	}()
	return r
}

// finish stops the sampler, waits for it and returns its readings.
func (r *rssSampler) finish() ([]float64, error) {
	close(r.stop)
	<-r.done
	return r.mb, r.err
}
