package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"aceso/internal/tensor"
)

func vec(vals ...float64) *tensor.Mat {
	return &tensor.Mat{Rows: 1, Cols: len(vals), Data: vals}
}

func mustWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// reduce is the test helper for the happy path, where an error is a
// test failure rather than a behavior under test.
func reduce(t *testing.T, w *World, group []int, rank int, in *tensor.Mat) *tensor.Mat {
	t.Helper()
	out, err := w.AllReduceSum(group, rank, in)
	if err != nil {
		t.Errorf("AllReduceSum rank %d: %v", rank, err)
		return in
	}
	return out
}

func TestAllReduceSum(t *testing.T) {
	w := mustWorld(t, 4)
	group := []int{0, 1, 2, 3}
	results := make([]*tensor.Mat, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r] = reduce(t, w, group, r, vec(float64(r+1), 10*float64(r+1)))
		}(r)
	}
	wg.Wait()
	for r := 0; r < 4; r++ {
		if results[r].Data[0] != 10 || results[r].Data[1] != 100 {
			t.Errorf("rank %d got %v, want [10 100]", r, results[r].Data)
		}
	}
}

func TestAllReduceIndependentGroups(t *testing.T) {
	w := mustWorld(t, 4)
	groups := [][]int{{0, 1}, {2, 3}}
	results := make([]*tensor.Mat, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r] = reduce(t, w, groups[r/2], r, vec(float64(r)))
		}(r)
	}
	wg.Wait()
	if results[0].Data[0] != 1 || results[1].Data[0] != 1 {
		t.Errorf("group {0,1}: got %v, %v, want 1", results[0].Data, results[1].Data)
	}
	if results[2].Data[0] != 5 || results[3].Data[0] != 5 {
		t.Errorf("group {2,3}: got %v, %v, want 5", results[2].Data, results[3].Data)
	}
}

func TestConsecutiveCollectivesDoNotCollide(t *testing.T) {
	w := mustWorld(t, 2)
	group := []int{0, 1}
	out := make([][]float64, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a := reduce(t, w, group, r, vec(1))
			b := reduce(t, w, group, r, vec(10))
			out[r] = []float64{a.Data[0], b.Data[0]}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if out[r][0] != 2 || out[r][1] != 20 {
			t.Errorf("rank %d: %v, want [2 20]", r, out[r])
		}
	}
}

func TestSendRecv(t *testing.T) {
	w := mustWorld(t, 2)
	if err := w.Send(0, 1, "fwd:0", vec(42)); err != nil {
		t.Fatal(err)
	}
	got, err := w.Recv(0, 1, "fwd:0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 42 {
		t.Fatalf("Recv = %v", got.Data)
	}
	// Tags keep streams separate.
	w.Send(0, 1, "a", vec(1))
	w.Send(0, 1, "b", vec(2))
	if m, _ := w.Recv(0, 1, "b"); m.Data[0] != 2 {
		t.Error("tag b delivered wrong payload")
	}
	if m, _ := w.Recv(0, 1, "a"); m.Data[0] != 1 {
		t.Error("tag a delivered wrong payload")
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := mustWorld(t, 2)
	m := vec(7)
	w.Send(0, 1, "t", m)
	m.Data[0] = 99 // mutate after send
	if got, _ := w.Recv(0, 1, "t"); got.Data[0] != 7 {
		t.Errorf("Recv = %v, want 7 (send must copy)", got.Data)
	}
}

func TestAllReduceResultIsolated(t *testing.T) {
	w := mustWorld(t, 2)
	group := []int{0, 1}
	results := make([]*tensor.Mat, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r] = reduce(t, w, group, r, vec(1))
		}(r)
	}
	wg.Wait()
	results[0].Data[0] = 123
	if results[1].Data[0] != 2 {
		t.Error("ranks share all-reduce output storage")
	}
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		w, err := NewWorld(n)
		if err == nil || w != nil {
			t.Fatalf("NewWorld(%d) = %v, %v; want typed error", n, w, err)
		}
		var sizeErr *InvalidWorldSizeError
		if !errors.As(err, &sizeErr) || sizeErr.Size != n {
			t.Fatalf("NewWorld(%d) error %v is not an InvalidWorldSizeError", n, err)
		}
	}
}

// TestAllReduceTimesOutOnAbsentRank is the satellite contract: a rank
// that never shows up inside AllReduceSum must surface as a typed
// *CollectiveTimeoutError at the deadline, not as a deadlock.
func TestAllReduceTimesOutOnAbsentRank(t *testing.T) {
	w := mustWorld(t, 3)
	w.SetDeadline(30 * time.Millisecond)
	group := []int{0, 1, 2}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	// Ranks 0 and 1 enter; rank 2 never does.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = w.AllReduceSum(group, r, vec(1))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		var te *CollectiveTimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("rank %d: err = %v, want *CollectiveTimeoutError", r, err)
		}
		if te.Op != "all-reduce" || te.Rank != r {
			t.Errorf("rank %d: timeout error = %+v", r, te)
		}
	}
}

func TestRecvTimesOutOnAbsentSender(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetDeadline(20 * time.Millisecond)
	start := time.Now()
	_, err := w.Recv(0, 1, "never")
	var te *CollectiveTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Recv err = %v, want *CollectiveTimeoutError", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("Recv took %v, want prompt timeout", waited)
	}
}

// TestFailWakesBlockedWaiters: ranks blocked in a collective or a Recv
// when a group member dies must fail fast with *DeadRankError — no
// deadline required.
func TestFailWakesBlockedWaiters(t *testing.T) {
	w := mustWorld(t, 3) // no deadline at all
	group := []int{0, 1, 2}
	errCh := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			_, err := w.AllReduceSum(group, r, vec(1))
			errCh <- err
		}(r)
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := w.Recv(2, 0, "fwd")
		recvErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiters block
	w.Fail(2)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errCh:
			var de *DeadRankError
			if !errors.As(err, &de) || de.Dead != 2 {
				t.Fatalf("collective err = %v, want DeadRankError{Dead: 2}", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("collective still blocked after Fail")
		}
	}
	select {
	case err := <-recvErr:
		var de *DeadRankError
		if !errors.As(err, &de) || de.Dead != 2 {
			t.Fatalf("recv err = %v, want DeadRankError{Dead: 2}", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after Fail")
	}
}

func TestOpsOnDeadRankFailImmediately(t *testing.T) {
	w := mustWorld(t, 4)
	w.FailRange(2, 2) // ranks 2 and 3 die
	if err := w.Send(0, 1, "t", vec(1)); err != nil {
		t.Fatalf("Send between live ranks: err = %v", err)
	}
	var de *DeadRankError
	if err := w.Send(0, 2, "t", vec(1)); !errors.As(err, &de) {
		t.Errorf("Send to dead rank: err = %v", err)
	}
	if _, err := w.Recv(3, 0, "t"); !errors.As(err, &de) {
		t.Errorf("Recv from dead rank: err = %v", err)
	}
	if _, err := w.AllReduceSum([]int{0, 2}, 0, vec(1)); !errors.As(err, &de) {
		t.Errorf("AllReduceSum with dead rank: err = %v", err)
	}
}

func TestRecvDrainsBufferedMessageFromDeadSender(t *testing.T) {
	w := mustWorld(t, 2)
	w.Send(0, 1, "fwd", vec(5))
	w.Fail(0)
	got, err := w.Recv(0, 1, "fwd")
	if err != nil || got.Data[0] != 5 {
		t.Fatalf("Recv = %v, %v; want buffered 5 (in-flight traffic survives)", got, err)
	}
	// The next Recv (nothing buffered) must fail.
	if _, err := w.Recv(0, 1, "fwd"); err == nil {
		t.Fatal("second Recv from dead sender succeeded")
	}
}
