package elastic

import (
	"context"
	"strings"
	"testing"

	"aceso/internal/obs"
)

func countTransitions(rep *Report, kind TransitionKind) int {
	n := 0
	for _, tr := range rep.Transitions {
		if tr.Kind == kind {
			n++
		}
	}
	return n
}

// TestSuperviseNoticeDrainZeroLostSteps is the spot acceptance core: a
// preemption notice whose window covers the checkpoint cost drains the
// doomed device proactively — final checkpoint inside the window,
// switchover to the pre-warmed plan, zero lost steps, and a trajectory
// that still matches the uninterrupted run to float tolerance.
func TestSuperviseNoticeDrainZeroLostSteps(t *testing.T) {
	const iters = 8
	job := pp2tp2Job(t, iters)
	refLosses, ref := refRun(t, job)

	reg := obs.NewRegistry()
	opt := superviseOpts(t)
	opt.Metrics = reg
	opt.CheckpointCost = 1
	// Notice at iteration 3 with a 2-iteration window: reclaim at 5,
	// switchover at 4 — the window covers the checkpoint cost.
	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 3, Kind: PreemptNotice, Device: 2, Notice: 2},
	}}
	rep, err := Supervise(context.Background(), job, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Notices != 1 || rep.CleanDrains != 1 || rep.NoticesMissed != 0 {
		t.Fatalf("notices %d, clean drains %d, missed %d; want 1/1/0",
			rep.Notices, rep.CleanDrains, rep.NoticesMissed)
	}
	if rep.StepsLost != 0 {
		t.Fatalf("steps lost %d, want 0: a covered notice must drain losslessly", rep.StepsLost)
	}
	if rep.FaultsDetected != 0 {
		t.Fatalf("faults detected %d, want 0: the drain pre-empts the fault path", rep.FaultsDetected)
	}
	checkRejoins(t, rep, refLosses, ref, tol)
	if !hasTransition(rep, TransNotice) || !hasTransition(rep, TransDrain) {
		t.Errorf("transition log missing notice/drain: %+v", rep.Transitions)
	}
	if rep.Replans == 0 {
		t.Error("no pre-warmed replan recorded for an in-use device drain")
	}
	for _, name := range []string{
		obs.SpotNoticesTotal, obs.SpotCleanDrainsTotal, obs.SpotPrewarmReplansTotal,
		obs.ChurnEventsTotal + `{kind="preempt-notice"}`,
	} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("metric %s = 0, want > 0", name)
		}
	}
	if v := reg.Counter(obs.SpotNoticesMissedTotal).Value(); v != 0 {
		t.Errorf("metric %s = %v, want 0", obs.SpotNoticesMissedTotal, v)
	}
}

// TestSuperviseNoticeMissedFallsBack: a window shorter than the
// checkpoint cost cannot drain cleanly — the supervisor records a typed
// *NoticeMissedError and the reclaim fires through the ordinary in-plan
// preemption path (mid-segment fault, rollback, ladder recovery).
func TestSuperviseNoticeMissedFallsBack(t *testing.T) {
	const iters = 8
	job := pp2tp2Job(t, iters)
	refLosses, ref := refRun(t, job)

	reg := obs.NewRegistry()
	opt := superviseOpts(t)
	opt.Metrics = reg
	opt.CheckpointCost = 3
	// Notice at iteration 2 with a 1-iteration window: cost 3 > window
	// 1, so the drain is impossible — reclaim lands mid-segment at 3.
	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 2, Kind: PreemptNotice, Device: 2, Notice: 1},
	}}
	rep, err := Supervise(context.Background(), job, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Notices != 1 || rep.NoticesMissed != 1 || rep.CleanDrains != 0 {
		t.Fatalf("notices %d, missed %d, clean drains %d; want 1/1/0",
			rep.Notices, rep.NoticesMissed, rep.CleanDrains)
	}
	if len(rep.NoticeMisses) != 1 {
		t.Fatalf("NoticeMisses %v, want exactly one typed entry", rep.NoticeMisses)
	}
	nm := rep.NoticeMisses[0]
	if nm.Device != 2 || nm.Window != 1 || nm.Cost != 3 || nm.Deadline != 3 {
		t.Fatalf("NoticeMissedError fields %+v, want device 2, window 1, cost 3, deadline 3", nm)
	}
	if !strings.Contains(nm.Error(), "device 2") {
		t.Errorf("NoticeMissedError message %q does not name the device", nm.Error())
	}
	if rep.FaultsDetected != 1 {
		t.Fatalf("faults detected %d, want 1: the reclaim must reuse the preempt path", rep.FaultsDetected)
	}
	if rep.StepsLost == 0 {
		t.Error("a missed notice reclaiming mid-segment should lose work")
	}
	if !hasTransition(rep, TransNoticeMissed) || !hasTransition(rep, TransFault) {
		t.Errorf("transition log missing notice-missed/fault: %+v", rep.Transitions)
	}
	if hasTransition(rep, TransDrain) {
		t.Errorf("unexpected clean drain in %+v", rep.Transitions)
	}
	checkRejoins(t, rep, refLosses, ref, tol)
	if reg.Counter(obs.SpotNoticesMissedTotal).Value() == 0 {
		t.Errorf("metric %s = 0, want > 0", obs.SpotNoticesMissedTotal)
	}
	if v := reg.Counter(obs.SpotCleanDrainsTotal).Value(); v != 0 {
		t.Errorf("metric %s = %v, want 0", obs.SpotCleanDrainsTotal, v)
	}
}

// TestSuperviseDoublePreemptSameDevice pins the semantics of the shared
// in-plan-preemption predicate: a second preempt of an already-dead
// device is a pure no-op — no second fault, no rollback, no cadence or
// hysteresis churn.
func TestSuperviseDoublePreemptSameDevice(t *testing.T) {
	const iters = 8

	job := pp2tp2Job(t, iters)

	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 3, Kind: Preempt, Device: 2},
		{Iteration: 5, Kind: Preempt, Device: 2},
	}}
	rep, err := Supervise(context.Background(), job, spec, superviseOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsDetected != 1 {
		t.Fatalf("faults detected %d, want 1: the second preempt must not fire", rep.FaultsDetected)
	}
	if n := countTransitions(rep, TransFault); n != 1 {
		t.Fatalf("%d fault transitions, want exactly 1", n)
	}
	if rep.EventsApplied != 2 || rep.EventCounts["preempt"] != 2 {
		t.Fatalf("events applied %d (%v), want both preempts consumed", rep.EventsApplied, rep.EventCounts)
	}
	sawNoOp := false
	for _, tr := range rep.Transitions {
		if tr.Kind == TransEvent && strings.Contains(tr.Detail, "already dead") {
			sawNoOp = true
		}
	}
	if !sawNoOp {
		t.Errorf("second preempt did not log the already-dead no-op: %+v", rep.Transitions)
	}
	// The no-op must not disturb recovery bookkeeping: exactly one
	// recovery, and the run still completes every iteration.
	if len(rep.Recoveries) != 1 {
		t.Errorf("%d recoveries recorded, want 1", len(rep.Recoveries))
	}
	if rep.FinalStep != iters || len(rep.Losses) != iters {
		t.Fatalf("final step %d, losses %d; want %d", rep.FinalStep, len(rep.Losses), iters)
	}
	checkMonotone(t, rep.Steps)
}

// TestSuperviseNoticeCanceledByRealPreempt: an unnoticed preempt that
// reclaims a device before its armed drain fires cancels the drain —
// the device dies through the fault path and the drain never double
// fires.
func TestSuperviseNoticeCanceledByRealPreempt(t *testing.T) {
	const iters = 8

	job := pp2tp2Job(t, iters)

	opt := superviseOpts(t)
	opt.CheckpointCost = 1
	// Drain armed at 2 (switchover at 5), but the device is yanked
	// without ceremony at 3.
	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 2, Kind: PreemptNotice, Device: 2, Notice: 4},
		{Iteration: 3, Kind: Preempt, Device: 2},
	}}
	rep, err := Supervise(context.Background(), job, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Notices != 1 || rep.FaultsDetected != 1 {
		t.Fatalf("notices %d, faults %d; want 1/1", rep.Notices, rep.FaultsDetected)
	}
	if rep.CleanDrains != 0 {
		t.Fatalf("clean drains %d, want 0: the real preempt canceled the drain", rep.CleanDrains)
	}
	if hasTransition(rep, TransDrain) {
		t.Errorf("canceled drain still fired: %+v", rep.Transitions)
	}
	if rep.FinalStep != iters {
		t.Fatalf("final step %d, want %d", rep.FinalStep, iters)
	}
	checkMonotone(t, rep.Steps)
}
