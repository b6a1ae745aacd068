package main

// The spot target is the spot-capacity case study: risk-aware planning
// against a mixed reserved/spot fleet, a deterministic preemption trace
// replayed twice through elastic.Supervise — once risk-aware (notices
// honored, Young–Daly cadence), once risk-blind (same reclaim instants,
// no notices, sparse checkpoints) — and the randomized spot chaos pass.
// The speedup it gates on is of *achieved* throughput: steps per unit
// of wall work, counting re-executed iterations, checkpoint overhead
// and recovery stalls — not the nominal iteration time.

import (
	"fmt"

	"aceso/internal/chaos"
	"aceso/internal/core"
	"aceso/internal/elastic"
	"aceso/internal/exps"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// spotSpeedupGate is the acceptance floor on achieved-throughput
// speedup of the risk-aware replay over the risk-blind one.
const spotSpeedupGate = 1.2

// Wall-work pricing for the replay comparison, in units of one
// iteration's time. Checkpoints cost a fraction of an iteration; a
// reactive fault recovery pays detection + checkpoint restore + an
// unwarmed replan on the critical path; a notice-driven clean drain
// pays only the pre-warmed switchover (the search ran while the doomed
// device was still serving).
const (
	spotCkptCost    = 0.1
	spotFaultCost   = 2.0
	spotDrainCost   = 0.5
	spotNoticeIters = 2 // advance warning, in iterations
)

// spotReclaim is one scripted spot reclaim: the device is taken at
// iteration At and (optionally) handed back at ReaddAt.
type spotReclaim struct {
	At      int
	Device  int
	ReaddAt int // 0: never returns
}

// spotTrace is the deterministic replay schedule: reclaims placed
// mid-segment relative to the risk-blind checkpoint cadence, so the
// blind run pays real rollback work while the aware run's notices
// cover every reclaim.
var spotTrace = []spotReclaim{
	{At: 7, Device: 6, ReaddAt: 10},
	{At: 13, Device: 7, ReaddAt: 16},
	{At: 19, Device: 2, ReaddAt: 22},
	{At: 25, Device: 5, ReaddAt: 28},
	{At: 30, Device: 1},
}

// spotEvents renders the trace as a churn schedule. Aware runs get the
// advance notice spotNoticeIters before each reclaim; blind runs get
// the bare preempt at the same reclaim instant.
func spotEvents(aware bool) elastic.ChurnSpec {
	var spec elastic.ChurnSpec
	for _, r := range spotTrace {
		if aware {
			spec.Events = append(spec.Events, elastic.ChurnEvent{
				Iteration: r.At - spotNoticeIters,
				Kind:      elastic.PreemptNotice,
				Device:    r.Device,
				Notice:    spotNoticeIters,
			})
		} else {
			spec.Events = append(spec.Events, elastic.ChurnEvent{
				Iteration: r.At,
				Kind:      elastic.Preempt,
				Device:    r.Device,
			})
		}
		if r.ReaddAt > 0 {
			spec.Events = append(spec.Events, elastic.ChurnEvent{
				Iteration: r.ReaddAt,
				Kind:      elastic.Readd,
				Device:    r.Device,
			})
		}
	}
	return spec
}

// spotWall prices one supervised run's wall work in iterations: every
// iteration it ran, plus its checkpoints, faults and clean drains.
func spotWall(rep *elastic.Report) float64 {
	return float64(rep.IterationsExecuted) +
		spotCkptCost*float64(rep.Checkpoints) +
		spotFaultCost*float64(rep.FaultsDetected) +
		spotDrainCost*float64(rep.CleanDrains)
}

// runSpot runs the planner, replay and chaos slices of the case study.
func runSpot(e *env) ([]exps.Table, []string, error) {
	// Planner slice: GPT-3 350M on 8 reserved + 8 spot V100s, spot
	// reclaimed 6×/hour, against the same search on the hazard-stripped
	// twin with every plan re-priced under the true hazard.
	graph, err := model.GPT3("350M")
	if err != nil {
		return nil, nil, err
	}
	spotCl := hardware.ReservedSpotV100(8, 1, 1, 6, 120)
	opts := caseStudyOptions(e.set.Seed)
	cmp, err := awareVsBlind(graph, spotCl, spotCl.StripHazard(), opts, func(c core.Candidate) (float64, bool) {
		if c.Estimate == nil || !c.Estimate.Feasible {
			return 0, false
		}
		expected, _ := core.RiskAssess(&spotCl, c.Config, c.Estimate.IterTime)
		return expected, true
	})
	if err != nil {
		return nil, nil, err
	}
	aware := cmp.Aware
	awareExpected := aware.Best.Score // on spot capacity the objective is expected iteration time

	var g gates
	g.gate(aware.RecommendedCadence > 0, "no recommended cadence on a hazardous fleet")
	g.gate(awareExpected <= cmp.BlindCost*(1+1e-9), "risk-aware expected %.6fs worse than re-priced risk-blind %.6fs",
		awareExpected, cmp.BlindCost)
	planner := exps.Table{Key: "planner",
		Title: "spot: planner: GPT-3 350M on 8 reserved + 8 spot V100s (6 reclaims/hour, 120s notice), risk-blind plans re-priced under risk",
		Cols: []exps.Col{{Head: "planner"}, {Head: "nominal s", Fmt: "%.4f"}, {Head: "expected s", Fmt: "%.4f"},
			{Head: "vs aware", Fmt: "%.3fx"}, {Head: "explored"}, {Head: "cadence"}},
		Rows: [][]any{
			{"risk-aware", aware.Best.Estimate.IterTime, awareExpected, 1.0, aware.Explored, aware.RecommendedCadence},
			{"risk-blind", cmp.BlindBest.Estimate.IterTime, cmp.BlindCost, cmp.BlindCost / awareExpected, cmp.Blind.Explored, "-"},
		},
	}

	// Replay slice: the churn target's MLP fleet, one preemption trace,
	// two supervisors.
	const (
		iters        = 32
		blindCadence = 8
	)
	job, err := recoveryJob(iters, e.set.Seed)
	if err != nil {
		return nil, nil, err
	}

	// The aware cadence is the Young–Daly recommendation for the
	// trace's empirical hazard, in iteration units (iterTime = 1).
	lamPerIter := float64(len(spotTrace)) / iters
	awareCadence := perfmodel.RecommendedCadence(lamPerIter, 1, spotCkptCost, blindCadence)

	run := func(aware bool) (*elastic.Report, error) {
		j := job
		j.Params = job.Params.Clone() // a supervised run consumes its parameters
		return supervise(j, spotEvents(aware), e.set.Seed, func(o *elastic.Options) {
			o.CheckpointEvery, o.MaxCadence = blindCadence, blindCadence
			if aware {
				o.CheckpointEvery = awareCadence
				o.CheckpointCost = 1
			}
		})
	}

	awareRep, err := run(true)
	if err != nil {
		return nil, nil, fmt.Errorf("aware replay: %w", err)
	}
	blindRep, err := run(false)
	if err != nil {
		return nil, nil, fmt.Errorf("blind replay: %w", err)
	}

	awareWall, blindWall := spotWall(awareRep), spotWall(blindRep)
	awareTput, blindTput := iters/awareWall, iters/blindWall // steps per wall iteration
	speedup := awareTput / blindTput

	g.gate(awareRep.FinalStep == iters && blindRep.FinalStep == iters, "replay incomplete: aware %d, blind %d, want %d",
		awareRep.FinalStep, blindRep.FinalStep, iters)
	g.gate(awareRep.StepsLost == 0, "aware replay lost %d steps; covered notices must drain losslessly", awareRep.StepsLost)
	g.gate(awareRep.CleanDrains == len(spotTrace) && awareRep.NoticesMissed == 0, "aware replay drains %d/%d clean (%d missed)",
		awareRep.CleanDrains, len(spotTrace), awareRep.NoticesMissed)
	g.gate(blindRep.StepsLost > 0, "blind replay lost no steps; the trace exercises nothing")
	g.gate(speedup >= spotSpeedupGate, "achieved speedup %.3fx < gate %.1fx", speedup, spotSpeedupGate)
	replay := exps.Table{Key: "replay", View: exps.Lines,
		Title: fmt.Sprintf("\nspot: replay: %s, %d-reclaim trace over %d iterations, seed %d; achieved speedup gate %.1fx",
			recoveryJobSetting, len(spotTrace), iters, e.set.Seed, spotSpeedupGate),
		Cols: append(ledgerCols, exps.Col{Head: "checkpoint cadence", Fmt: "initial cadence %d,"},
			exps.Col{Head: "wall iters", Fmt: "%.1f wall iterations,"},
			exps.Col{Head: "achieved throughput", Fmt: "%.4f steps/iter-time,"}, exps.Col{Head: "vs blind", Fmt: "%.3fx blind's"}),
		Rows: [][]any{
			append(ledgerCells("aware", awareRep), awareCadence, awareWall, awareTput, speedup),
			append(ledgerCells("blind", blindRep), blindCadence, blindWall, blindTput, 1.0),
		},
	}

	trials := runTrials(e, chaos.Spot)
	return []exps.Table{planner, replay, trials.table()}, append(g.failed, trials.Violations...), nil
}
