// Package comm provides the collective-communication layer of the
// numeric runtime: a miniature in-process NCCL where devices are
// goroutines and transports are channels. The runtime's data-,
// tensor- and pipeline-parallel executors are SPMD programs whose
// ranks synchronize exclusively through a World.
//
// Fault semantics: a World tracks dead ranks (Fail/FailRange) and an
// optional per-operation deadline (SetDeadline). A collective that
// involves a dead rank — or that waits past the deadline for a rank
// that never arrives — returns a typed error (*DeadRankError,
// *CollectiveTimeoutError) instead of blocking forever. This is what
// lets the elastic runtime surface a device loss as a diagnosable
// error at an iteration boundary rather than a deadlocked process.
package comm

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"aceso/internal/tensor"
)

// World connects n ranks. All collective calls are group-scoped: every
// member of the group must call with the same group and op sequence,
// or the collective deadlocks (as a real NCCL communicator would) —
// bounded by the per-op deadline when one is set.
type World struct {
	deadline time.Duration

	mu sync.Mutex
	// In-flight rendezvous per group key; removed on completion so
	// consecutive collectives on the same group start fresh.
	points map[string]*rendezvous
	// p2p mailboxes keyed by (from, to, tag).
	mail map[mailKey]chan *tensor.Mat
	// dead marks failed ranks; failCh is closed (and replaced) on every
	// Fail so blocked waiters can re-check their peers.
	dead   map[int]bool
	failCh chan struct{}
}

type mailKey struct {
	from, to int
	tag      string
}

type rendezvous struct {
	want    int
	entered int
	inputs  []*tensor.Mat // by position in the group, whatever the arrival order
	ranks   []int
	done    chan struct{}
	outputs map[int]*tensor.Mat
}

// InvalidWorldSizeError reports a World requested with a non-positive
// rank count.
type InvalidWorldSizeError struct{ Size int }

// Error implements the error interface.
func (e *InvalidWorldSizeError) Error() string {
	return fmt.Sprintf("comm: invalid world size %d", e.Size)
}

// CollectiveTimeoutError reports an operation that waited past the
// World's per-op deadline for a peer that never arrived — the fail-fast
// replacement for an indefinitely blocked collective.
type CollectiveTimeoutError struct {
	Op     string // "all-reduce" | "send" | "recv"
	Rank   int    // the rank that timed out
	Waited time.Duration
}

// Error implements the error interface.
func (e *CollectiveTimeoutError) Error() string {
	return fmt.Sprintf("comm: %s on rank %d timed out after %v (peer missing or stalled)",
		e.Op, e.Rank, e.Waited)
}

// DeadRankError reports an operation that involves a rank previously
// marked dead with Fail. Unlike a timeout it is immediate: the faulty
// peer is known, not merely suspected.
type DeadRankError struct {
	Op   string
	Rank int // the rank attempting the operation
	Dead int // the dead peer
}

// Error implements the error interface.
func (e *DeadRankError) Error() string {
	return fmt.Sprintf("comm: %s on rank %d involves dead rank %d", e.Op, e.Rank, e.Dead)
}

// NewWorld returns a communicator over n ranks. A non-positive n is a
// configuration error reported to the caller, not a panic: the rank
// count comes from user-supplied configurations, which must never be
// able to take the process down.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, &InvalidWorldSizeError{Size: n}
	}
	return &World{
		points: make(map[string]*rendezvous),
		mail:   make(map[mailKey]chan *tensor.Mat),
		dead:   make(map[int]bool),
		failCh: make(chan struct{}),
	}, nil
}

// SetDeadline bounds every subsequent collective/p2p wait: an operation
// that blocks longer returns *CollectiveTimeoutError. Zero (the
// default) means wait forever. Must be set before the ranks start
// communicating; it is not synchronized against in-flight operations.
func (w *World) SetDeadline(d time.Duration) { w.deadline = d }

// Fail marks ranks as dead and wakes every blocked waiter so that
// operations involving the dead ranks return *DeadRankError.
func (w *World) Fail(ranks ...int) {
	w.mu.Lock()
	for _, r := range ranks {
		w.dead[r] = true
	}
	close(w.failCh)
	w.failCh = make(chan struct{})
	w.mu.Unlock()
}

// FailRange marks the contiguous rank range [first, first+size) dead.
func (w *World) FailRange(first, size int) {
	ranks := make([]int, 0, size)
	for r := first; r < first+size; r++ {
		ranks = append(ranks, r)
	}
	w.Fail(ranks...)
}

// deadPeer returns the first dead rank among peers (or -1) and the
// current fail-broadcast channel, atomically.
func (w *World) deadPeer(peers []int) (int, chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range peers {
		if w.dead[p] {
			return p, w.failCh
		}
	}
	return -1, w.failCh
}

// testTimeoutFired, when non-nil, runs after a deadline timer fires
// and before the timeout verdict is decided. Tests use it to land a
// completion inside that window and pin the completion-beats-timeout
// re-check below; it is nil outside tests.
var testTimeoutFired func()

// timeoutC returns a channel that fires at the deadline (nil = never)
// and the cleanup for its timer.
func (w *World) timeoutC() (<-chan time.Time, func()) {
	if w.deadline <= 0 {
		return nil, func() {}
	}
	t := time.NewTimer(w.deadline)
	return t.C, func() { t.Stop() }
}

// await blocks until done closes, a peer dies, or the deadline expires.
func (w *World) await(done <-chan struct{}, op string, rank int, peers []int) error {
	timeout, stop := w.timeoutC()
	defer stop()
	for {
		dead, failCh := w.deadPeer(peers)
		if dead >= 0 {
			return &DeadRankError{Op: op, Rank: rank, Dead: dead}
		}
		select {
		case <-done:
			return nil
		case <-failCh:
			// A rank died somewhere; loop to re-check our peers.
		case <-timeout:
			if f := testTimeoutFired; f != nil {
				f()
			}
			// Completion (or a known-dead peer) beats the timeout: when
			// the timer and the success condition are ready at the same
			// select, a random pick could manufacture a spurious timeout
			// for a collective that in fact completed — and during a
			// dead-rank cascade that would kill a stage that succeeded.
			select {
			case <-done:
				return nil
			default:
			}
			if dead, _ := w.deadPeer(peers); dead >= 0 {
				return &DeadRankError{Op: op, Rank: rank, Dead: dead}
			}
			return &CollectiveTimeoutError{Op: op, Rank: rank, Waited: w.deadline}
		}
	}
}

// enter joins rank's collective on group, contributing in; it blocks
// until all members arrive (or the wait fails) and returns the
// rendezvous for reduction.
func (w *World) enter(op string, group []int, rank int, in *tensor.Mat) (*rendezvous, error) {
	if dead, _ := w.deadPeer(group); dead >= 0 {
		return nil, &DeadRankError{Op: op, Rank: rank, Dead: dead}
	}
	pos := slices.Index(group, rank)
	if pos < 0 {
		return nil, fmt.Errorf("comm: %s: rank %d is not in group %v", op, rank, group)
	}
	key := fmt.Sprint(group)
	w.mu.Lock()
	r, ok := w.points[key]
	if !ok {
		r = &rendezvous{
			want:    len(group),
			inputs:  make([]*tensor.Mat, len(group)),
			done:    make(chan struct{}),
			outputs: make(map[int]*tensor.Mat),
		}
		w.points[key] = r
	}
	r.entered++
	r.inputs[pos] = in
	r.ranks = append(r.ranks, rank)
	last := r.entered == r.want
	if last {
		// This rendezvous is complete; detach it so the next collective
		// on the same group starts fresh.
		delete(w.points, key)
	}
	w.mu.Unlock()
	if last {
		return r, nil
	}
	if err := w.await(r.done, op, rank, group); err != nil {
		return nil, err
	}
	return r, nil
}

// AllReduceSum sums the contributions of every rank in group and
// returns the result to each caller. Must be called by every member;
// a dead member fails the call with a typed error instead of blocking.
// The sum runs in group order, not arrival order, so a floating-point
// reduction gives the same bits on every run.
func (w *World) AllReduceSum(group []int, rank int, in *tensor.Mat) (*tensor.Mat, error) {
	r, err := w.enter("all-reduce", group, rank, in)
	if err != nil {
		return nil, err
	}
	if r.entered == r.want && !closed(r.done) {
		// The completing rank reduces.
		sum := r.inputs[0].Clone()
		for _, m := range r.inputs[1:] {
			tensor.AddInPlace(sum, m)
		}
		for _, rk := range r.ranks {
			r.outputs[rk] = sum
		}
		close(r.done)
	}
	<-r.done
	return r.outputs[rank].Clone(), nil
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Send transfers m from rank `from` to rank `to` under a tag
// (pipeline-stage boundary traffic). Buffered: Send does not block
// unless the mailbox is full, in which case the deadline applies.
func (w *World) Send(from, to int, tag string, m *tensor.Mat) error {
	if dead, _ := w.deadPeer([]int{from, to}); dead >= 0 {
		return &DeadRankError{Op: "send", Rank: from, Dead: dead}
	}
	box := w.box(from, to, tag)
	payload := m.Clone()
	select {
	case box <- payload:
		return nil
	default:
	}
	timeout, stop := w.timeoutC()
	defer stop()
	for {
		dead, failCh := w.deadPeer([]int{from, to})
		if dead >= 0 {
			return &DeadRankError{Op: "send", Rank: from, Dead: dead}
		}
		select {
		case box <- payload:
			return nil
		case <-failCh:
		case <-timeout:
			if f := testTimeoutFired; f != nil {
				f()
			}
			// Delivery or a known-dead peer beats the timeout (see await).
			select {
			case box <- payload:
				return nil
			default:
			}
			if dead, _ := w.deadPeer([]int{from, to}); dead >= 0 {
				return &DeadRankError{Op: "send", Rank: from, Dead: dead}
			}
			return &CollectiveTimeoutError{Op: "send", Rank: from, Waited: w.deadline}
		}
	}
}

// Recv blocks until the matching Send arrives, the sender dies, or the
// deadline expires. A message already buffered before the sender died
// is still delivered — p2p traffic in flight at the moment of failure
// is not lost.
func (w *World) Recv(from, to int, tag string) (*tensor.Mat, error) {
	box := w.box(from, to, tag)
	// Drain an already-delivered message first, even from a dead sender.
	select {
	case m := <-box:
		return m, nil
	default:
	}
	timeout, stop := w.timeoutC()
	defer stop()
	for {
		dead, failCh := w.deadPeer([]int{from})
		if dead >= 0 {
			// One last non-blocking drain: Fail may have raced the Send.
			select {
			case m := <-box:
				return m, nil
			default:
			}
			return nil, &DeadRankError{Op: "recv", Rank: to, Dead: dead}
		}
		select {
		case m := <-box:
			return m, nil
		case <-failCh:
		case <-timeout:
			if f := testTimeoutFired; f != nil {
				f()
			}
			// An already-buffered message or a known-dead sender beats the
			// timeout (see await); in-flight traffic is never lost.
			select {
			case m := <-box:
				return m, nil
			default:
			}
			if dead, _ := w.deadPeer([]int{from}); dead >= 0 {
				return nil, &DeadRankError{Op: "recv", Rank: to, Dead: dead}
			}
			return nil, &CollectiveTimeoutError{Op: "recv", Rank: to, Waited: w.deadline}
		}
	}
}

func (w *World) box(from, to int, tag string) chan *tensor.Mat {
	key := mailKey{from, to, tag}
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.mail[key]
	if !ok {
		ch = make(chan *tensor.Mat, 1024)
		w.mail[key] = ch
	}
	return ch
}
