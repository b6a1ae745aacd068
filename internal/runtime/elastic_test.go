package runtime

import (
	"errors"
	"math"
	"testing"
	"time"

	"aceso/internal/comm"
	"aceso/internal/model"
	"aceso/internal/tensor"
)

// trainedParams returns params that have actually trained: all four
// Adam moment maps are populated and Step > 0, so shallow-copy bugs
// have state to corrupt.
func trainedParams(t *testing.T, g *model.Graph) *Params {
	t.Helper()
	p := InitParams(g, 7)
	p.Opt = Adam
	x, y := data(42)
	if _, err := Serial(g, p, x, y, 4, lr, 2); err != nil {
		t.Fatal(err)
	}
	if p.Step != 2 {
		t.Fatalf("Step = %d after 2 iters, want 2", p.Step)
	}
	return p
}

// TestCloneIsDeepCopy is the mutation-based audit of satellite 2: every
// mutable field of a Clone must be independent storage. A shallow alias
// of the Adam moment maps would let a "snapshot" keep training with the
// live parameters, silently corrupting every checkpoint built from it.
func TestCloneIsDeepCopy(t *testing.T) {
	g := buildMLP(t)
	p := trainedParams(t, g)
	snap := p.Clone()
	if d := p.MaxDiff(snap); d != 0 {
		t.Fatalf("fresh clone differs by %g", d)
	}

	// Mutate every tensor of the original in place; the clone must not move.
	pristine := snap.Clone()
	bump := func(mm map[int]*tensor.Mat) {
		for _, v := range mm {
			for i := range v.Data {
				v.Data[i] += 1e3
			}
		}
	}
	for _, m := range p.T {
		bump(m)
	}
	p.Step += 17

	if d := snap.MaxDiff(pristine); d != 0 {
		t.Fatalf("mutating the original changed the clone by %g — shallow alias", d)
	}
	// And the reverse direction: mutating the clone must not touch pristine.
	bump(snap.T[MW])
	if d := snap.MaxDiff(pristine); d == 0 {
		t.Fatal("mutation of clone moments not visible to MaxDiff — moments not compared")
	}
}

// TestMaxDiffStrictness: a step mismatch or one-sided optimizer state is
// an unbounded divergence, not a near-match.
func TestMaxDiffStrictness(t *testing.T) {
	g := buildMLP(t)
	p := trainedParams(t, g)
	q := p.Clone()
	q.Step++
	if d := p.MaxDiff(q); !math.IsInf(d, 1) {
		t.Errorf("step mismatch: MaxDiff = %g, want +Inf", d)
	}
	q = p.Clone()
	q.T[MW], q.T[VW], q.T[MB], q.T[VB] = nil, nil, nil, nil
	if d := p.MaxDiff(q); !math.IsInf(d, 1) {
		t.Errorf("one-sided optimizer state: MaxDiff = %g, want +Inf", d)
	}

	// A NaN difference, a W tensor missing from the argument and a W
	// tensor only the argument has are each an unbounded divergence, in
	// both directions.
	nan := p.Clone()
	for _, w := range nan.T[W] {
		for i := range w.Data {
			w.Data[i] = math.NaN()
		}
	}
	missing := p.Clone()
	delete(missing.T[W], 0)
	extra := p.Clone()
	extra.T[W][len(g.Ops)] = tensor.New(1, 1)
	for name, q := range map[string]*Params{"NaN weight": nan, "missing W": missing, "extra W": extra} {
		if d := p.MaxDiff(q); !math.IsInf(d, 1) {
			t.Errorf("%s: p.MaxDiff(q) = %g, want +Inf", name, d)
		}
		if d := q.MaxDiff(p); !math.IsInf(d, 1) {
			t.Errorf("%s: q.MaxDiff(p) = %g, want +Inf", name, d)
		}
	}
}

// TestFaultInjectionReturnsTypedError: killing a device at iteration k
// must surface as *DeviceLostError at the iteration boundary — with the
// other stages failing fast through comm — never as a deadlock.
func TestFaultInjectionReturnsTypedError(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 2, 2, 2, 1, 4) // 2 stages × 2 devices
	x, y := data(42)
	for _, rank := range []int{0, 2} { // one rank per stage
		p := InitParams(g, 7)
		p.Opt = Adam
		start := time.Now()
		losses, err := Parallel(g, cfg, p, x, y, lr, iters, RunOptions{
			Fault:        &FaultPlan{Rank: rank, Iteration: 1},
			CommDeadline: 2 * time.Second,
		})
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("rank %d: fault handling took %v — deadline not honored", rank, elapsed)
		}
		var dl *DeviceLostError
		if !errors.As(err, &dl) {
			t.Fatalf("rank %d: err = %v, want *DeviceLostError", rank, err)
		}
		if dl.Rank != rank || dl.Iteration != 1 || dl.Step != 1 {
			t.Errorf("rank %d: fault detail = %+v", rank, dl)
		}
		if len(losses) > 1 {
			t.Errorf("rank %d: %d losses survived a fault at iteration 1", rank, len(losses))
		}
	}
}

// TestFaultOnLastStageStillUnblocksFirst: the failure cascade must
// travel backwards through the pipeline (stage 0 blocks on bwd traffic
// from stage 1), not just forwards.
func TestFaultOnLastStageStillUnblocksFirst(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 4, 1, 1, 1, 2) // deep pipeline
	x, y := data(42)
	p := InitParams(g, 7)
	done := make(chan error, 1)
	go func() {
		_, err := Parallel(g, cfg, p, x, y, lr, iters, RunOptions{
			Fault: &FaultPlan{Rank: 3, Iteration: 0}, // no deadline: cascade only
		})
		done <- err
	}()
	select {
	case err := <-done:
		var dl *DeviceLostError
		if !errors.As(err, &dl) || dl.Stage != 3 {
			t.Fatalf("err = %v, want DeviceLostError on stage 3", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fault on last stage deadlocked the pipeline")
	}
}

// TestFaultPlanValidation: out-of-range plans are rejected up front.
func TestFaultPlanValidation(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 1, 1, 1, 1, 4)
	x, y := data(42)
	p := InitParams(g, 7)
	for _, f := range []FaultPlan{{Rank: -1, Iteration: 0}, {Rank: 9, Iteration: 0}, {Rank: 0, Iteration: iters}} {
		f := f
		if _, err := Parallel(g, cfg, p, x, y, lr, iters, RunOptions{Fault: &f}); err == nil {
			t.Errorf("fault %+v accepted", f)
		}
	}
}

// TestResumeMatchesUninterrupted: a run split into two Parallel
// segments (the checkpoint/resume pattern, Adam bias correction resuming
// from Step+1) must reproduce the single uninterrupted run exactly.
func TestResumeMatchesUninterrupted(t *testing.T) {
	g := buildMLP(t)
	cfg := uniform(t, g, 2, 2, 2, 1, 4)
	x, y := data(42)

	whole := InitParams(g, 7)
	whole.Opt = Adam
	wholeLosses, err := Parallel(g, cfg, whole, x, y, lr, 6, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	split := InitParams(g, 7)
	split.Opt = Adam
	l1, err := Parallel(g, cfg, split, x, y, lr, 3, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if split.Step != 3 {
		t.Fatalf("Step = %d after first segment, want 3", split.Step)
	}
	resumed := split.Clone() // the checkpoint
	l2, err := Parallel(g, cfg, resumed, x, y, lr, 3, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]float64{}, l1...), l2...)
	for i := range wholeLosses {
		if math.Abs(wholeLosses[i]-got[i]) > tol {
			t.Errorf("iter %d: uninterrupted %.12f vs segmented %.12f", i, wholeLosses[i], got[i])
		}
	}
	if d := whole.MaxDiff(resumed); d > tol {
		t.Errorf("final state differs by %g between whole and segmented runs", d)
	}
}

// Interface check: the comm layer's typed errors unwrap through the
// runtime's stage wrapping.
func TestCommErrorsUnwrapThroughStageWrapping(t *testing.T) {
	var _ error = (*comm.CollectiveTimeoutError)(nil)
	var _ error = (*comm.DeadRankError)(nil)
	var _ error = (*DeviceLostError)(nil)
}

// TestValidateRejectsMisshapenState: a moment that is not its
// parameter's shape, or a bias that is not one row as wide as its
// weight, is a typed error before anything trains on it — training
// would index past the short tensor.
func TestValidateRejectsMisshapenState(t *testing.T) {
	g := buildMLP(t)
	for k := B; k < NumTensorKinds; k++ {
		p := trainedParams(t, g)
		if err := p.Validate(); err != nil {
			t.Fatalf("trained state: %v", err)
		}
		p.T[k][0] = tensor.New(1, 1)
		var sm *ShapeMismatchError
		if err := p.Validate(); !errors.As(err, &sm) || sm.Op != 0 || sm.Kind != k {
			t.Errorf("op 0's %v 1×1: err = %v, want *ShapeMismatchError on op 0 %v", k, err, k)
		}
	}
}
