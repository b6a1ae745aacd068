package main

// The churn target, and the training job it shares with the spot
// target's replay.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"aceso/internal/chaos"
	"aceso/internal/elastic"
	"aceso/internal/exps"
	"aceso/internal/hardware"
)

// recoveryJob is the churn and spot targets' workload: MLP(6 layers,
// dim 16, batch 32) at pp2×tp2×dp2 on 8 emulated V100s — two 4-device
// nodes instead of one DGX, so link derates hit a fabric the plan
// actually crosses.
func recoveryJob(iters int, seed int64) (elastic.Job, error) {
	cl := hardware.DGX1V100(2)
	cl.DevicesPerNode = 4
	if err := cl.Validate(); err != nil {
		return elastic.Job{}, err
	}
	job, err := chaos.MLPJob(rand.New(rand.NewSource(seed)), cl, 6, 16, 32, chaos.Shape{Stages: 2, TP: 2, DP: 2}, 8, seed)
	job.Iters = iters
	return job, err
}

// supervise runs job through spec under the recovery targets' common
// policy, checkpointing into a scratch directory (a file round trip);
// tune sets what a run varies.
func supervise(job elastic.Job, spec elastic.ChurnSpec, seed int64, tune func(*elastic.Options)) (*elastic.Report, error) {
	dir, err := os.MkdirTemp("", "aceso-recovery-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opt := elastic.Options{
		LR:           chaos.LR,
		Dir:          dir,
		SearchBudget: 300 * time.Millisecond,
		Seed:         seed,
	}
	tune(&opt)
	return elastic.Supervise(context.Background(), job, spec, opt)
}

const recoveryJobSetting = "MLP(6 layers, dim 16, batch 32), pp2×tp2×dp2 on 8 emulated V100s (2 nodes × 4)"

// ledgerCols head the figures of a supervised run's elastic.Report as
// ledgerCells lays them out; a Lines view of them reads as a sentence.
var ledgerCols = []exps.Col{
	{Head: "run"},
	{Head: "final step", Fmt: "reached step %d,"},
	{Head: "iterations executed", Fmt: "ran %d iterations,"},
	{Head: "steps lost", Fmt: "lost %d steps;"},
	{Head: "events applied", Fmt: "%d events"},
	{Head: "faults", Fmt: "(%d faults),"},
	{Head: "notices", Fmt: "%d notices"},
	{Head: "clean drains", Fmt: "(%d drained clean,"},
	{Head: "notices missed", Fmt: "%d missed),"},
	{Head: "checkpoints", Fmt: "%d checkpoints,"},
	{Head: "restores", Fmt: "%d restores,"},
	{Head: "reshards", Fmt: "%d reshards"},
	{Head: "reshard bytes", Fmt: "(%d B moved),"},
	{Head: "replans", Fmt: "%d replans"},
	{Head: "prewarm replans", Fmt: "(%d prewarmed,"},
	{Head: "replans avoided", Fmt: "%d avoided),"},
	{Head: "retries", Fmt: "%d retries,"},
	{Head: "pauses", Fmt: "%d pauses,"},
	{Head: "final cadence", Fmt: "cadence %d at exit;"},
	{Head: "availability %", Fmt: "availability %.1f%%,"},
	{Head: "recovery p50", Fmt: "recovery p50 %v", Round: time.Microsecond},
	{Head: "recovery p99", Fmt: "p99 %v;", Round: time.Microsecond},
}

func ledgerCells(run string, r *elastic.Report) []any {
	return []any{run, r.FinalStep, r.IterationsExecuted, r.StepsLost, r.EventsApplied, r.FaultsDetected,
		r.Notices, r.CleanDrains, r.NoticesMissed, r.Checkpoints, r.Restores, r.Reshards, r.ReshardBytesMoved,
		r.Replans, r.PrewarmReplans, r.ReplansAvoided, r.Retries, r.Pauses, r.FinalCadence,
		100 * r.Availability(), r.RecoveryPercentile(0.5), r.RecoveryPercentile(0.99)}
}

// churnSchedule is the deterministic 22-event acceptance schedule: two
// full preempt/readd cycles plus a late third, mild derates the
// hysteresis should absorb, a harsh straggler that must force a
// replan, and fabric derates with restores.
func churnSchedule() elastic.ChurnSpec {
	return elastic.ChurnSpec{Events: []elastic.ChurnEvent{
		{Iteration: 2, Kind: elastic.SlowNode, Device: 5, Scale: 0.9},   // mild blip → deferred
		{Iteration: 3, Kind: elastic.SlowNode, Device: 5, Scale: 1},     // restored
		{Iteration: 4, Kind: elastic.LinkDerate, Scale: 0.85},           // mild fabric congestion
		{Iteration: 5, Kind: elastic.LinkDerate, Scale: 1},              // cleared
		{Iteration: 6, Kind: elastic.Preempt, Device: 6},                // in-plan loss → ladder
		{Iteration: 8, Kind: elastic.Preempt, Device: 7},                // second loss
		{Iteration: 10, Kind: elastic.Readd, Device: 6},                 // capacity returns
		{Iteration: 11, Kind: elastic.Readd, Device: 7},                 // back to full fleet
		{Iteration: 13, Kind: elastic.SlowNode, Device: 1, Scale: 0.3},  // harsh straggler → forced
		{Iteration: 15, Kind: elastic.SlowNode, Device: 1, Scale: 1},    // recovered
		{Iteration: 16, Kind: elastic.LinkDerate, Scale: 0.6},           // heavy congestion
		{Iteration: 18, Kind: elastic.LinkDerate, Scale: 1},             // cleared
		{Iteration: 19, Kind: elastic.Preempt, Device: 0},               // third loss
		{Iteration: 21, Kind: elastic.Readd, Device: 0},                 // returns
		{Iteration: 22, Kind: elastic.SlowNode, Device: 3, Scale: 0.92}, // mild
		{Iteration: 23, Kind: elastic.SlowNode, Device: 4, Scale: 0.92}, // mild
		{Iteration: 24, Kind: elastic.SlowNode, Device: 3, Scale: 1},
		{Iteration: 24, Kind: elastic.SlowNode, Device: 4, Scale: 1},
		{Iteration: 25, Kind: elastic.Preempt, Device: 2}, // late loss
		{Iteration: 26, Kind: elastic.Readd, Device: 2},
		{Iteration: 27, Kind: elastic.LinkDerate, Scale: 0.9}, // parting blip
		{Iteration: 27, Kind: elastic.LinkDerate, Scale: 1},
	}}
}

// runChurn survives one deterministic churn schedule (22 mixed events
// over 28 iterations on 8 emulated V100s across 2 nodes, with a
// checkpoint file round trip) and gates on the invariants every
// recovery trial holds (chaos.CheckRun: each loss within
// chaos.RejoinTol of an uninterrupted run, the steps lost bounded),
// on hysteresis having avoided at least one replan search, and on the
// schedule having exercised faults and retries. It then runs the
// randomized one-fault and churn chaos passes.
func runChurn(e *env) ([]exps.Table, []string, error) {
	const iters = 28
	job, err := recoveryJob(iters, e.set.Seed)
	if err != nil {
		return nil, nil, err
	}
	refLosses, ref, err := chaos.Reference(job)
	if err != nil {
		return nil, nil, err
	}

	spec := churnSchedule()
	rep, err := supervise(job, spec, e.set.Seed, func(o *elastic.Options) {
		o.CheckpointEvery = 2
		o.SimulateTimeouts = 1 // exercise the backoff policy once
	})
	if err != nil {
		return nil, nil, err
	}
	lossDelta, paramDiff := math.Abs(refLosses[iters-1]-rep.Losses[iters-1]), ref.MaxDiff(rep.Params)
	perFault := 0.0
	if rep.FaultsDetected > 0 {
		perFault = float64(rep.StepsLost) / float64(rep.FaultsDetected)
	}
	ledger := exps.Table{
		Title: fmt.Sprintf("churn: %s, %d-event churn schedule over %d iterations, checkpoint every 2, seed %d; trajectory gate %g",
			recoveryJobSetting, len(spec.Events), iters, e.set.Seed, chaos.RejoinTol),
		Cols: append(ledgerCols, exps.Col{Head: "steps lost per fault", Fmt: "%.2f lost per fault,"},
			exps.Col{Head: "final devices", Fmt: "ends on %d devices;"},
			exps.Col{Head: "loss delta", Fmt: "vs uninterrupted: loss delta %.3g,"}, exps.Col{Head: "param diff", Fmt: "param diff %.3g"}),
		Rows: [][]any{append(ledgerCells("churn", rep), perFault, rep.Config.TotalDevices(), lossDelta, paramDiff)},
		View: exps.Lines,
	}
	decisions := exps.Table{Key: "transitions", Title: "\nsupervisor decisions", View: exps.Lines,
		Cols: []exps.Col{{Head: "step", Fmt: "step %d"}, {Head: "kind", Fmt: "[%s]"}, {Head: "detail"}}}
	for _, tr := range rep.Transitions {
		decisions.Rows = append(decisions.Rows, []any{tr.Step, tr.Kind, tr.Detail})
	}

	var g gates
	if v := chaos.CheckRun(rep, refLosses, ref); v != nil {
		g.gate(false, "recovery broke %s: %s", v.Kind, v.Detail)
	}
	g.gate(rep.ReplansAvoided > 0, "hysteresis avoided no replans across %d events", rep.EventsApplied)
	g.gate(rep.FaultsDetected > 0 && rep.Retries > 0, "schedule exercised too little: faults=%d retries=%d",
		rep.FaultsDetected, rep.Retries)

	trials := runTrials(e, chaos.OneFault, chaos.Churn)
	return []exps.Table{ledger, decisions, trials.table()}, append(g.failed, trials.Violations...), nil
}
