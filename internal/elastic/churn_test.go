package elastic

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"aceso/internal/comm"
	"aceso/internal/hardware"
	"aceso/internal/obs"
	"aceso/internal/runtime"
)

const tol = 1e-9

// superviseOpts returns fast-test defaults: a file round trip and a
// short collective deadline.
func superviseOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		LR:              lr,
		CheckpointEvery: 2,
		Dir:             t.TempDir(),
		CommDeadline:    10 * time.Second,
	}
}

// testJob is the tests' workload on cl: the MLP under a balanced plan
// of stages × devPerStage devices with every operator at tp, the fixed
// batch, and fresh Adam state.
func testJob(t testing.TB, cl hardware.Cluster, stages, devPerStage, tp, iters int) Job {
	t.Helper()
	g := buildMLP(t)
	x, y := trainData(42)
	p := runtime.InitParams(g, 7)
	p.Opt = runtime.Adam
	return Job{
		Graph: g, Cluster: cl, Config: uniformCfg(t, g, stages, devPerStage, tp, 1, 4),
		Params: p, X: x, Y: y, Iters: iters,
	}
}

// pp2tp2Job is the standard setting: pp2 × tp2 on 4 devices.
func pp2tp2Job(t testing.TB, iters int) Job {
	t.Helper()
	return testJob(t, hardware.DGX1V100(1).Restrict(4), 2, 2, 2, iters)
}

// refRun trains job's uninterrupted reference trajectory on a copy of
// its Params.
func refRun(t *testing.T, job Job) ([]float64, *runtime.Params) {
	t.Helper()
	p := job.Params.Clone()
	losses, err := runtime.Parallel(job.Graph, job.Config, p, job.X, job.Y, lr, job.Iters, runtime.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return losses, p
}

// checkRejoins asserts a finished run took every iteration and matches
// the uninterrupted trajectory — losses and final state — within tol.
func checkRejoins(t *testing.T, rep *Report, refLosses []float64, ref *runtime.Params, tol float64) {
	t.Helper()
	if len(rep.Losses) != len(refLosses) || rep.FinalStep != len(refLosses) {
		t.Fatalf("losses %d, final step %d; want %d", len(rep.Losses), rep.FinalStep, len(refLosses))
	}
	for i := range refLosses {
		if math.Abs(rep.Losses[i]-refLosses[i]) > tol {
			t.Errorf("iter %d: loss %.12f vs reference %.12f", i, rep.Losses[i], refLosses[i])
		}
	}
	if d := ref.MaxDiff(rep.Params); d > tol {
		t.Errorf("final state differs by %g from uninterrupted run (tolerance %g)", d, tol)
	}
	checkMonotone(t, rep.Steps)
}

func checkMonotone(t *testing.T, steps []int) {
	t.Helper()
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Fatalf("step counter not monotone: %v", steps)
		}
	}
}

func hasTransition(rep *Report, kind TransitionKind) bool {
	for _, tr := range rep.Transitions {
		if tr.Kind == kind {
			return true
		}
	}
	return false
}

// TestSuperviseSingleFault covers the schedule's smallest inputs. One
// in-plan preempt is the end-to-end acceptance case: train, lose a
// device at iteration 3, replan on the degraded cluster, reshard the
// last checkpoint through the file round trip, resume — and the
// stitched trajectory plus the final state match an uninterrupted
// run on the original plan. No event, or one the run never reaches, is
// segmented training: bitwise identical to one Parallel call. A device
// outside the cluster is refused before any training happens.
func TestSuperviseSingleFault(t *testing.T) {
	const iters = 6
	for _, tc := range []struct {
		name    string
		events  []ChurnEvent
		faults  int
		wantErr bool
	}{
		{name: "one preempt", events: []ChurnEvent{{Iteration: 3, Kind: Preempt, Device: 2}}, faults: 1},
		{name: "no event"},
		{name: "event past the run", events: []ChurnEvent{{Iteration: iters, Kind: Preempt, Device: 2}}},
		{name: "device out of range", events: []ChurnEvent{{Iteration: 3, Kind: Preempt, Device: 4}}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := pp2tp2Job(t, iters)
			refLosses, ref := refRun(t, job)
			reg := obs.NewRegistry()
			opt := superviseOpts(t)
			opt.Metrics = reg

			rep, err := Supervise(context.Background(), job, ChurnSpec{Events: tc.events}, opt)
			if tc.wantErr {
				if err == nil {
					t.Fatal("out-of-range event accepted")
				}
				if job.Params.Step != 0 || reg.Counter(obs.ElasticCheckpointsTotal).Value() != 0 {
					t.Errorf("refused schedule still trained: step %d", job.Params.Step)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.FaultsDetected != tc.faults || rep.Reshards != tc.faults || len(rep.Recoveries) != tc.faults {
				t.Fatalf("faults %d, reshards %d, recoveries %d; want %d each",
					rep.FaultsDetected, rep.Reshards, len(rep.Recoveries), tc.faults)
			}
			if got := reg.Counter(obs.ChurnFaultsTotal).Value(); got != int64(tc.faults) {
				t.Errorf("%s = %d, want %d", obs.ChurnFaultsTotal, got, tc.faults)
			}
			// One recovery histogram: each recovery is observed exactly once.
			if got := reg.Histogram(obs.ChurnRecovery).Count(); got != int64(tc.faults) {
				t.Errorf("%s observed %d times, want %d", obs.ChurnRecovery, got, tc.faults)
			}

			if tc.faults == 0 {
				checkRejoins(t, rep, refLosses, ref, 0) // the plan never changed: bitwise
				if rep.Config != job.Config || rep.Replans != 0 || rep.EventsApplied != 0 {
					t.Errorf("idle schedule caused work: %+v", rep)
				}
				if a := rep.Availability(); a != 1 {
					t.Errorf("availability %v, want 1", a)
				}
				if rep.Checkpoints != iters/2+1 {
					t.Errorf("checkpoints %d, want %d (every segment + step 0)", rep.Checkpoints, iters/2+1)
				}
				return
			}

			checkRejoins(t, rep, refLosses, ref, tol)
			if rep.Config == job.Config {
				t.Error("no replanned config: still training on the original plan")
			}
			if rep.Config.TotalDevices() >= 4 {
				t.Errorf("replanned config uses %d devices, want < 4 after losing one", rep.Config.TotalDevices())
			}
			if rep.ReshardBytesMoved <= 0 {
				t.Errorf("reshard moved %d bytes, want > 0 (plan changed)", rep.ReshardBytesMoved)
			}
			if rep.Recoveries[0] <= 0 {
				t.Error("recovery duration not recorded")
			}
			for _, name := range []string{
				obs.ElasticCheckpointsTotal, obs.ElasticRestoresTotal,
				obs.ElasticReshardsTotal, obs.ElasticReshardBytesMovedTotal,
			} {
				if reg.Counter(name).Value() == 0 {
					t.Errorf("metric %s = 0, want > 0", name)
				}
			}
		})
	}
}

// TestSupervisePreemptReaddEndToEnd is the churn acceptance core: an
// in-plan preemption mid-run, recovery down the ladder, a later
// re-addition — and the final trajectory still matches the
// uninterrupted run to float tolerance.
func TestSupervisePreemptReaddEndToEnd(t *testing.T) {
	const iters = 8
	job := pp2tp2Job(t, iters)
	refLosses, ref := refRun(t, job)

	reg := obs.NewRegistry()
	opt := superviseOpts(t)
	opt.Metrics = reg
	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 3, Kind: Preempt, Device: 2},
		{Iteration: 6, Kind: Readd, Device: 2},
	}}
	rep, err := Supervise(context.Background(), job, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsDetected != 1 {
		t.Fatalf("faults detected %d, want 1", rep.FaultsDetected)
	}
	if rep.EventsApplied != 2 || rep.EventCounts["preempt"] != 1 || rep.EventCounts["readd"] != 1 {
		t.Fatalf("events applied %d (%v), want preempt+readd", rep.EventsApplied, rep.EventCounts)
	}
	if rep.Reshards == 0 {
		t.Error("no reshard recorded for a recovery that changed the plan")
	}
	if len(rep.Recoveries) == 0 {
		t.Error("no recovery duration recorded")
	}
	checkRejoins(t, rep, refLosses, ref, tol)
	if !hasTransition(rep, TransFault) || !hasTransition(rep, TransResume) {
		t.Errorf("transition log missing fault/resume: %+v", rep.Transitions)
	}
	if rep.StepsLost == 0 || rep.Availability() >= 1 {
		t.Errorf("mid-segment fault should lose work: lost %d, availability %v",
			rep.StepsLost, rep.Availability())
	}
	for _, name := range []string{
		obs.ChurnFaultsTotal, obs.ChurnStepsLostTotal, obs.ChurnTransitionsTotal + `{kind="fault"}`,
		obs.ChurnEventsTotal + `{kind="preempt"}`, obs.ChurnEventsTotal + `{kind="readd"}`,
	} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("metric %s = 0, want > 0", name)
		}
	}
	if reg.Histogram(obs.ChurnRecovery).Count() == 0 {
		t.Error("churn recovery histogram has no observations")
	}
}

// TestSuperviseHysteresisDefersMildBlips: a transient derate below the
// replan threshold is debounced — no search, no reshard, and because
// the plan never changed the run stays bitwise identical. A 0.95 FLOPS
// scale slows one stage's compute by 5 %, a third of replanThreshold.
func TestSuperviseHysteresisDefersMildBlips(t *testing.T) {
	const iters = 6
	job := pp2tp2Job(t, iters)
	refLosses, ref := refRun(t, job)

	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 1, Kind: SlowNode, Device: 0, Scale: 0.95},
		{Iteration: 4, Kind: SlowNode, Device: 0, Scale: 1},
	}}
	rep, err := Supervise(context.Background(), job, spec, superviseOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplansAvoided == 0 {
		t.Error("hysteresis avoided no replans")
	}
	if rep.Replans != 0 || rep.Reshards != 0 {
		t.Errorf("mild blip caused %d replans, %d reshards; want 0", rep.Replans, rep.Reshards)
	}
	if !hasTransition(rep, TransReplanDeferred) {
		t.Errorf("no replan-deferred transition: %+v", rep.Transitions)
	}
	// No reconfiguration happened, so the run stays bitwise identical.
	checkRejoins(t, rep, refLosses, ref, 0)
}

// TestSuperviseForcedReplanOnHarshDegradation: a derate whose projected
// slowdown clears the threshold forces an immediate replan decision.
func TestSuperviseForcedReplanOnHarshDegradation(t *testing.T) {
	const iters = 6
	job := pp2tp2Job(t, iters)
	refLosses, ref := refRun(t, job)

	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 2, Kind: SlowNode, Device: 0, Scale: 0.05},
	}}
	rep, err := Supervise(context.Background(), job, spec, superviseOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if !hasTransition(rep, TransReplanForced) {
		t.Fatalf("no replan-forced transition: %+v", rep.Transitions)
	}
	if rep.Replans == 0 {
		t.Error("forced replan ran no search")
	}
	// Whatever plan the search picked, semantics are preserved.
	checkRejoins(t, rep, refLosses, ref, tol)
}

// TestSupervisePersistenceForcesReplan: each blip is individually below
// threshold, but hysteresisEvents consecutive deferrals escalate.
func TestSupervisePersistenceForcesReplan(t *testing.T) {
	const iters = 8
	job := pp2tp2Job(t, iters)

	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 1, Kind: SlowNode, Device: 0, Scale: 0.95},
		// Device 2 lives on the other pipeline stage, so the second blip
		// degrades a fresh bottleneck rather than hiding behind the first;
		// the third deepens the first.
		{Iteration: 3, Kind: SlowNode, Device: 2, Scale: 0.95},
		{Iteration: 5, Kind: SlowNode, Device: 0, Scale: 0.9},
	}}
	rep, err := Supervise(context.Background(), job, spec, superviseOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if !hasTransition(rep, TransReplanDeferred) {
		t.Errorf("first blip was not deferred: %+v", rep.Transitions)
	}
	if !hasTransition(rep, TransReplanForced) {
		t.Errorf("persistent degradation never escalated: %+v", rep.Transitions)
	}
	if rep.ReplansAvoided != hysteresisEvents-1 {
		t.Errorf("replans avoided %d, want exactly %d (the last blip escalates)", rep.ReplansAvoided, hysteresisEvents-1)
	}
}

// TestSuperviseBackoffRetries: transient timeouts are retried with
// backoff and checkpoint restore; the run still completes exactly.
func TestSuperviseBackoffRetries(t *testing.T) {
	const iters = 4
	job := pp2tp2Job(t, iters)
	refLosses, ref := refRun(t, job)

	opt := superviseOpts(t)
	opt.SimulateTimeouts = maxRetries - 1
	rep, err := Supervise(context.Background(), job, ChurnSpec{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != opt.SimulateTimeouts {
		t.Errorf("retries %d, want %d", rep.Retries, opt.SimulateTimeouts)
	}
	if !hasTransition(rep, TransBackoffRetry) {
		t.Errorf("no backoff-retry transition: %+v", rep.Transitions)
	}
	checkRejoins(t, rep, refLosses, ref, tol)
}

// TestSuperviseBackoffExhausted: more consecutive timeouts than
// maxRetries surfaces the typed timeout error.
func TestSuperviseBackoffExhausted(t *testing.T) {
	job := pp2tp2Job(t, 4)

	reg := obs.NewRegistry()
	opt := superviseOpts(t)
	opt.SimulateTimeouts = maxRetries + 2
	opt.Metrics = reg
	rep, err := Supervise(context.Background(), job, ChurnSpec{}, opt)
	var te *comm.CollectiveTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v, want wrapped *comm.CollectiveTimeoutError", err)
	}
	checkErrorReport(t, rep)
	// The error path publishes the ledger too.
	if got := reg.Counter(obs.ChurnBackoffRetriesTotal).Value(); got != maxRetries+1 {
		t.Errorf("%s = %d, want %d", obs.ChurnBackoffRetriesTotal, got, maxRetries+1)
	}
}

// checkErrorReport asserts that a run that returned an error still
// closed its ledger on the state it reached.
func checkErrorReport(t *testing.T, rep *Report) {
	t.Helper()
	if rep == nil || rep.Params == nil {
		t.Fatalf("error return without a report of the state reached: %+v", rep)
	}
	if rep.FinalStep != rep.Params.Step {
		t.Errorf("final step %d, want the reached state's step %d", rep.FinalStep, rep.Params.Step)
	}
}

// allDevices is the schedule that applies kind to every device of an
// n-device cluster at the boundary of iteration at.
func allDevices(n, at int, kind ChurnKind) []ChurnEvent {
	evs := make([]ChurnEvent, n)
	for d := range evs {
		evs[d] = ChurnEvent{Iteration: at, Kind: kind, Device: d}
	}
	return evs
}

// capacityFleets are the fleets the out-of-capacity tests run pp2 on:
// one the plan fills, and a ragged one (10 devices over two 8-device
// nodes) whose last node is only partly there — alive() must count the
// devices that exist, not the node grid.
var capacityFleets = []struct {
	name string
	cl   hardware.Cluster
}{
	{"full node", hardware.DGX1V100(1).Restrict(2)},
	{"ragged fleet", hardware.DGX1V100(2).Restrict(10)},
}

// TestSupervisePauseAndResume: losing every device parks the run on its
// last checkpoint until the schedule re-adds capacity.
func TestSupervisePauseAndResume(t *testing.T) {
	const iters = 6
	for _, tc := range capacityFleets {
		t.Run(tc.name, func(t *testing.T) {
			job := testJob(t, tc.cl, 2, 1, 1, iters) // pp2 on 2 devices
			refLosses, ref := refRun(t, job)

			spec := ChurnSpec{Events: append(allDevices(tc.cl.TotalDevices(), 2, Preempt),
				ChurnEvent{Iteration: 4, Kind: Readd, Device: 0},
				ChurnEvent{Iteration: 5, Kind: Readd, Device: 1})}
			rep, err := Supervise(context.Background(), job, spec, superviseOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Pauses == 0 {
				t.Errorf("losing all devices did not pause: %+v", rep.Transitions)
			}
			if !hasTransition(rep, TransLadderPause) || !hasTransition(rep, TransResume) {
				t.Errorf("transition log missing pause/resume: %+v", rep.Transitions)
			}
			checkRejoins(t, rep, refLosses, ref, tol)
		})
	}
}

// TestSuperviseStallsWithoutCapacity: all devices gone and no
// re-addition left — a typed StalledError, not a hang.
func TestSuperviseStallsWithoutCapacity(t *testing.T) {
	for _, tc := range capacityFleets {
		t.Run(tc.name, func(t *testing.T) {
			job := testJob(t, tc.cl, 2, 1, 1, 4)
			spec := ChurnSpec{Events: allDevices(tc.cl.TotalDevices(), 1, Preempt)}
			opt := superviseOpts(t)
			opt.CheckpointEvery = 1 // the stall keeps the step-1 checkpoint
			rep, err := Supervise(context.Background(), job, spec, opt)
			var stalled *StalledError
			if !errors.As(err, &stalled) {
				t.Fatalf("error %v, want *StalledError", err)
			}
			if stalled.Alive != 0 {
				t.Errorf("stalled with %d alive, want 0", stalled.Alive)
			}
			checkErrorReport(t, rep)
			if rep.FinalStep != 1 || stalled.Step != 1 {
				t.Errorf("final step %d, stalled at step %d; want 1 and 1", rep.FinalStep, stalled.Step)
			}
		})
	}
}

// TestSuperviseAdaptiveCadence: frequent faults pull the checkpoint
// cadence down toward the observed inter-fault interval.
func TestSuperviseAdaptiveCadence(t *testing.T) {
	const iters = 8
	job := pp2tp2Job(t, iters)

	opt := superviseOpts(t)
	opt.CheckpointEvery = 4
	opt.MaxCadence = 4
	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 1, Kind: Preempt, Device: 3},
		{Iteration: 3, Kind: Preempt, Device: 2},
	}}
	rep, err := Supervise(context.Background(), job, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsDetected != 2 {
		t.Fatalf("faults detected %d, want 2", rep.FaultsDetected)
	}
	if rep.FinalCadence >= 4 {
		t.Errorf("final cadence %d, want < 4 after back-to-back faults", rep.FinalCadence)
	}
	if !hasTransition(rep, TransCadence) {
		t.Errorf("no cadence transition: %+v", rep.Transitions)
	}
}

// TestChurnSpecValidate rejects hostile schedules with typed errors.
func TestChurnSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   ChurnEvent
		ok   bool
	}{
		{"valid-preempt", ChurnEvent{Iteration: 0, Kind: Preempt, Device: 1}, true},
		{"valid-slow", ChurnEvent{Iteration: 3, Kind: SlowNode, Device: 0, Scale: 0.5}, true},
		{"valid-link", ChurnEvent{Iteration: 2, Kind: LinkDerate, Scale: 0.7}, true},
		{"negative-iteration", ChurnEvent{Iteration: -1, Kind: Preempt, Device: 0}, false},
		{"unknown-kind", ChurnEvent{Iteration: 0, Kind: ChurnKind(99), Device: 0}, false},
		{"device-low", ChurnEvent{Iteration: 0, Kind: Preempt, Device: -1}, false},
		{"device-high", ChurnEvent{Iteration: 0, Kind: Readd, Device: 4}, false},
		{"scale-zero", ChurnEvent{Iteration: 0, Kind: SlowNode, Device: 0, Scale: 0}, false},
		{"scale-high", ChurnEvent{Iteration: 0, Kind: LinkDerate, Scale: 1.5}, false},
		{"scale-nan", ChurnEvent{Iteration: 0, Kind: SlowNode, Device: 0, Scale: math.NaN()}, false},
	}
	for _, tc := range cases {
		spec := ChurnSpec{Events: []ChurnEvent{tc.ev}}
		err := spec.Validate(4)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}

	// Supervise refuses an invalid schedule and a pre-degraded cluster.
	job := pp2tp2Job(t, 2)
	bad := ChurnSpec{Events: []ChurnEvent{{Iteration: -1, Kind: Preempt}}}
	if _, err := Supervise(context.Background(), job, bad, superviseOpts(t)); err == nil {
		t.Error("invalid spec accepted")
	}
	var err error
	job.Cluster, err = job.Cluster.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{{Device: 3, Dead: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Supervise(context.Background(), job, ChurnSpec{}, superviseOpts(t)); err == nil {
		t.Error("degraded input cluster accepted")
	}
}

// TestEventsRederiveActive: every event re-derives the active cluster
// from the composed fleet state, so a schedule that undoes itself
// leaves the cluster the job started on, bitwise.
func TestEventsRederiveActive(t *testing.T) {
	job := pp2tp2Job(t, 1)
	for _, tc := range []struct {
		name   string
		events []ChurnEvent
	}{
		{"preempt, readd, link restore", []ChurnEvent{
			{Kind: Preempt, Device: 2}, {Kind: LinkDerate, Scale: 0.5},
			{Kind: Readd, Device: 2}, {Kind: LinkDerate, Scale: 1},
		}},
		{"straggler and restore under a dead device", []ChurnEvent{
			{Kind: Preempt, Device: 0}, {Kind: SlowNode, Device: 3, Scale: 0.5},
			{Kind: SlowNode, Device: 3, Scale: 1}, {Kind: Readd, Device: 0},
		}},
	} {
		s := newSupervisor(context.Background(), job, ChurnSpec{}, superviseOpts(t).withDefaults())
		for _, ev := range tc.events {
			if err := s.applyEvent(ev); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !reflect.DeepEqual(s.active, job.Cluster) {
			t.Errorf("%s: active %+v, want the job's cluster %+v", tc.name, s.active, job.Cluster)
		}
	}
}

// TestChurnKindString covers the label mapping the metrics depend on.
func TestChurnKindString(t *testing.T) {
	want := map[ChurnKind]string{
		Preempt: "preempt", Readd: "readd", SlowNode: "slow-node", LinkDerate: "link-derate",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if ChurnKind(200).String() == "" {
		t.Error("unknown kind has empty string")
	}
}

// TestRecoveryPercentile checks the quantile helper on known data.
func TestRecoveryPercentile(t *testing.T) {
	rep := &Report{}
	if rep.RecoveryPercentile(0.5) != 0 {
		t.Error("empty recoveries should yield 0")
	}
	rep.Recoveries = []time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if got := rep.RecoveryPercentile(0.5); got != 2*time.Millisecond {
		t.Errorf("p50 = %v, want 2ms", got)
	}
	if got := rep.RecoveryPercentile(0.99); got != 4*time.Millisecond {
		t.Errorf("p99 = %v, want 4ms", got)
	}
}

// superviseDigest hashes what a supervised run decided and computed:
// its losses' bits, the final state's bits, its transitions, the bytes
// its reshards moved and its ladder counts.
func superviseDigest(rep *Report) string {
	h := sha256.New()
	for _, l := range rep.Losses {
		fmt.Fprintf(h, "%x ", math.Float64bits(l))
	}
	for k, m := range rep.Params.T {
		var ids []int
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(h, "\n%d %d %dx%d:", k, id, m[id].Rows, m[id].Cols)
			for _, v := range m[id].Data {
				fmt.Fprintf(h, "%x ", math.Float64bits(v))
			}
		}
	}
	for _, tr := range rep.Transitions {
		fmt.Fprintf(h, "\n%d %s %s", tr.Step, tr.Kind, tr.Detail)
	}
	fmt.Fprintf(h, "\nreshard %d B", rep.ReshardBytesMoved)
	var rungs []string
	for rung, n := range rep.Ladder {
		rungs = append(rungs, fmt.Sprintf("\n%s %d", rung, n))
	}
	sort.Strings(rungs)
	fmt.Fprint(h, strings.Join(rungs, ""))
	return hex.EncodeToString(h.Sum(nil))
}

// TestSupervisedRunIsPure: a supervised run is a function of its job,
// schedule and seed. pp2×tp4 on 8 devices loses a device, gets it back,
// meets a straggler harsh enough to force a replan, and drains a covered
// notice; the run's digest is the same at GOMAXPROCS 1, 2 and 4 and
// equals testdata/supervise_digests.json.
func TestSupervisedRunIsPure(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "supervise_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 2, Kind: Preempt, Device: 5},
		{Iteration: 4, Kind: Readd, Device: 5},
		{Iteration: 6, Kind: SlowNode, Device: 0, Scale: 0.05},
		{Iteration: 8, Kind: SlowNode, Device: 0, Scale: 1},
		{Iteration: 9, Kind: PreemptNotice, Device: 3, Notice: 2},
	}}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		goruntime.GOMAXPROCS(procs)
		job := testJob(t, hardware.DGX1V100(1), 2, 4, 4, 12)
		opt := superviseOpts(t)
		opt.CheckpointCost = 1
		rep, err := Supervise(context.Background(), job, spec, opt)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if rep.FaultsDetected != 1 || rep.CleanDrains != 1 || !hasTransition(rep, TransReplanForced) {
			t.Fatalf("GOMAXPROCS %d: %d faults, %d clean drains, forced replan %v; want 1, 1, true",
				procs, rep.FaultsDetected, rep.CleanDrains, hasTransition(rep, TransReplanForced))
		}
		if got := superviseDigest(rep); got != want["mlp-pp2tp4-churn"] {
			t.Errorf("GOMAXPROCS %d: digest %s, golden %s", procs, got, want["mlp-pp2tp4-churn"])
		}
	}
}
