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
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
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

// spotReplayStats is one supervised replay's ledger and the achieved
// throughput priced from it.
type spotReplayStats struct {
	*elastic.Report
	CheckpointCadence  int     `json:"checkpoint_cadence"`
	WallIters          float64 `json:"wall_iters"`
	AchievedThroughput float64 `json:"achieved_throughput"`
}

// spotReport is the BENCH_spot.json schema.
type spotReport struct {
	Setting string `json:"setting"`
	Seed    int64  `json:"seed"`

	// Planner slice: search on the mixed reserved/spot fleet vs the
	// same search on the hazard-stripped twin, re-priced under risk.
	AwareNominalIterTime  float64 `json:"aware_nominal_iter_time"`
	AwareExpectedIterTime float64 `json:"aware_expected_iter_time"`
	AwareExplored         int     `json:"aware_explored"`
	RecommendedCadence    int     `json:"recommended_cadence"`
	BlindNominalIterTime  float64 `json:"blind_nominal_iter_time"`
	BlindExpectedIterTime float64 `json:"blind_expected_iter_time"`
	BlindExplored         int     `json:"blind_explored"`
	ExpectedSpeedup       float64 `json:"expected_speedup"`

	// Replay slice: one preemption trace, two supervisors.
	ReplayIterations int             `json:"replay_iterations"`
	ReplayReclaims   int             `json:"replay_reclaims"`
	Aware            spotReplayStats `json:"aware"`
	Blind            spotReplayStats `json:"blind"`
	AchievedSpeedup  float64         `json:"achieved_speedup"`
	SpeedupGate      float64         `json:"speedup_gate"`

	trialVerdict

	Metrics *obs.Registry `json:"metrics"`
}

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

// spotStats prices one supervised run's achieved throughput.
func spotStats(rep *elastic.Report, cadence, iters int) spotReplayStats {
	wall := float64(rep.IterationsExecuted) +
		spotCkptCost*float64(rep.Checkpoints) +
		spotFaultCost*float64(rep.FaultsDetected) +
		spotDrainCost*float64(rep.CleanDrains)
	return spotReplayStats{
		Report:             rep,
		CheckpointCadence:  cadence,
		WallIters:          wall,
		AchievedThroughput: float64(iters) / wall,
	}
}

// runSpot runs the planner, replay and chaos slices of the case study.
func runSpot(e *env) (any, []string, error) {
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
	fmt.Fprintf(e.w, "spot: planner: aware %.4fs nominal / %.4fs expected (cadence %d, explored %d); blind %.4fs nominal / %.4fs expected (explored %d)\n",
		aware.Best.Estimate.IterTime, awareExpected, aware.RecommendedCadence, aware.Explored,
		cmp.BlindBest.Estimate.IterTime, cmp.BlindCost, cmp.Blind.Explored)

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

	reg := obs.NewRegistry()
	run := func(aware bool) (*elastic.Report, error) {
		j := job
		j.Params = job.Params.Clone() // a supervised run consumes its parameters
		return supervise(j, spotEvents(aware), e.set.Seed, func(o *elastic.Options) {
			o.CheckpointEvery, o.MaxCadence = blindCadence, blindCadence
			if aware {
				o.CheckpointEvery = awareCadence
				o.CheckpointCost = 1
				o.Metrics = reg
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

	awareStats := spotStats(awareRep, awareCadence, iters)
	blindStats := spotStats(blindRep, blindCadence, iters)
	speedup := awareStats.AchievedThroughput / blindStats.AchievedThroughput

	g.gate(awareRep.FinalStep == iters && blindRep.FinalStep == iters, "replay incomplete: aware %d, blind %d, want %d",
		awareRep.FinalStep, blindRep.FinalStep, iters)
	g.gate(awareRep.StepsLost == 0, "aware replay lost %d steps; covered notices must drain losslessly", awareRep.StepsLost)
	g.gate(awareRep.CleanDrains == len(spotTrace) && awareRep.NoticesMissed == 0, "aware replay drains %d/%d clean (%d missed)",
		awareRep.CleanDrains, len(spotTrace), awareRep.NoticesMissed)
	g.gate(blindRep.StepsLost > 0, "blind replay lost no steps; the trace exercises nothing")
	g.gate(speedup >= spotSpeedupGate, "achieved speedup %.3fx < gate %.1fx", speedup, spotSpeedupGate)
	fmt.Fprintf(e.w, "spot: replay: aware %.4f steps/iter-time (lost %d, %d clean drains, cadence %d) vs blind %.4f (lost %d, %d faults, cadence %d): %.3fx achieved speedup (gate %.1fx)\n",
		awareStats.AchievedThroughput, awareRep.StepsLost, awareRep.CleanDrains, awareCadence,
		blindStats.AchievedThroughput, blindRep.StepsLost, blindRep.FaultsDetected, blindCadence,
		speedup, spotSpeedupGate)

	verdict := runTrials(e, chaos.Spot)

	return &spotReport{
		Setting: fmt.Sprintf("planner: GPT-3 350M on 8 reserved + 8 spot V100s (6 reclaims/hour, 120s notice); replay: %s, %d-reclaim trace over %d iterations, seed %d",
			recoveryJobSetting, len(spotTrace), iters, e.set.Seed),
		Seed:                  e.set.Seed,
		AwareNominalIterTime:  aware.Best.Estimate.IterTime,
		AwareExpectedIterTime: awareExpected,
		AwareExplored:         aware.Explored,
		RecommendedCadence:    aware.RecommendedCadence,
		BlindNominalIterTime:  cmp.BlindBest.Estimate.IterTime,
		BlindExpectedIterTime: cmp.BlindCost,
		BlindExplored:         cmp.Blind.Explored,
		ExpectedSpeedup:       cmp.BlindCost / awareExpected,
		ReplayIterations:      iters,
		ReplayReclaims:        len(spotTrace),
		Aware:                 awareStats,
		Blind:                 blindStats,
		AchievedSpeedup:       speedup,
		SpeedupGate:           spotSpeedupGate,
		trialVerdict:          verdict,
		Metrics:               reg,
	}, append(g.failed, verdict.Violations...), nil
}
