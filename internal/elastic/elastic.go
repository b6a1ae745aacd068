package elastic

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// Job is one training run to supervise: a model, the healthy cluster
// the churn schedule's physical ranks refer to, the plan and state to
// start from, one batch, and how many iterations to take.
type Job struct {
	Graph   *model.Graph
	Cluster hardware.Cluster
	Config  *config.Config
	// Params is consumed: a fault tears it (stages stop mid-iteration at
	// different points, like a crashed fleet). The state training ended
	// on is Report.Params.
	Params *runtime.Params
	X, Y   *tensor.Mat
	Iters  int
}

// The recovery policies' fixed thresholds.
const (
	// replanThreshold is the projected fractional throughput loss (or
	// idle-capacity gain) above which a churn event triggers an
	// immediate warm replan; smaller blips are debounced.
	replanThreshold = 0.15
	// hysteresisEvents is how many consecutive deferred degradations
	// accumulate before the supervisor replans anyway — persistence
	// beats the threshold.
	hysteresisEvents = 3
	// maxRetries caps consecutive timeout retries of one segment before
	// the error is surfaced.
	maxRetries = 3
	// backoffBase and backoffCap bound the capped exponential backoff
	// between retries of a segment that failed with
	// *comm.CollectiveTimeoutError; jitter is deterministic from Seed.
	backoffBase = 2 * time.Millisecond
	backoffCap  = 50 * time.Millisecond
)

// Options tunes the supervisor.
type Options struct {
	// LR is the learning rate passed through to the runtime.
	LR float64
	// CheckpointEvery seeds the adaptive checkpoint cadence: training
	// runs in segments of this many iterations with a checkpoint at
	// every boundary (default 1 — checkpoint each iteration).
	CheckpointEvery int
	// Dir, when non-empty, persists each checkpoint to
	// Dir/aceso.ckpt via the atomic Save path and recovers through
	// Load — the full file round trip. Empty keeps checkpoints in
	// memory.
	Dir string
	// CommDeadline bounds every collective wait in the runtime
	// (default 30s); it is what turns a missing rank into a typed
	// error instead of a hung World.
	CommDeadline time.Duration
	// SearchBudget bounds each Replan search (default 200ms).
	SearchBudget time.Duration
	// Seed drives the replan searches and the backoff jitter.
	Seed int64
	// Metrics, when non-nil, receives the Report as the aceso_elastic_*,
	// aceso_churn_* and aceso_spot_* series when Supervise returns.
	Metrics *obs.Registry

	// MaxCadence caps the adaptive checkpoint cadence (iterations per
	// checkpoint); the floor is 1. Default 4.
	MaxCadence int
	// SimulateTimeouts fails the first N segment attempts with a
	// synthetic *comm.CollectiveTimeoutError before touching the
	// runtime — a deterministic hook for exercising the backoff policy
	// from tests and the chaos harness.
	SimulateTimeouts int
	// CheckpointCost is how many iterations' worth of time one
	// checkpoint write occupies when racing a preempt notice's window:
	// a PreemptNotice with Notice ≥ CheckpointCost drains proactively
	// (the switchover fires CheckpointCost iterations before the
	// deadline so the final checkpoint completes in time) with zero
	// lost steps; a shorter window is a missed notice and the reclaim
	// falls back to the in-plan Preempt path. Default 0: checkpoints
	// are instantaneous and every window fits.
	CheckpointCost int
}

// withDefaults fills every unset knob.
func (o Options) withDefaults() Options {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	if o.CommDeadline <= 0 {
		o.CommDeadline = 30 * time.Second
	}
	if o.SearchBudget <= 0 {
		o.SearchBudget = 200 * time.Millisecond
	}
	if o.MaxCadence <= 0 {
		o.MaxCadence = 4
	}
	if o.CheckpointCost < 0 {
		o.CheckpointCost = 0
	}
	return o
}

// Report is the outcome of a supervised run and its only ledger: the
// metrics Supervise publishes and the recovery targets' reports are
// views of it.
type Report struct {
	// Losses holds one loss per completed iteration, stitched across
	// every recovery: Losses only grows at segment boundaries, which is
	// where checkpoints are, so a rolled-back segment leaves no trace.
	Losses []float64 `json:"losses"`
	// Steps records the optimizer step counter after every successful
	// segment — the chaos harness asserts it is strictly monotone.
	Steps []int `json:"steps"`
	// Params and Config are the state and plan training ended on;
	// FinalStep is Params.Step at exit.
	Params    *runtime.Params `json:"-"`
	Config    *config.Config  `json:"config"`
	FinalStep int             `json:"final_step"`

	// EventsApplied counts schedule events consumed; EventCounts
	// breaks them down by ChurnKind string.
	EventsApplied int            `json:"events_applied"`
	EventCounts   map[string]int `json:"event_counts"`
	// FaultsDetected counts in-plan device losses surfaced by the
	// runtime (a subset of the preempt events).
	FaultsDetected int `json:"faults_detected"`
	// Checkpoints, Restores and Reshards count recovery events: a
	// restore resumes training from a durable state (resharded or not);
	// ReshardBytesMoved is the physical data movement the reshards
	// implied (shard overlap that changed devices).
	Checkpoints       int   `json:"checkpoints"`
	Restores          int   `json:"restores"`
	Reshards          int   `json:"reshards"`
	ReshardBytesMoved int64 `json:"reshard_bytes_moved"`
	// Replans counts replan searches run, PrewarmReplans the subset run
	// for a notice drain while the doomed device still served;
	// ReplansAvoided counts the searches hysteresis (or a good-enough
	// projection) avoided.
	Replans        int `json:"replans"`
	PrewarmReplans int `json:"prewarm_replans"`
	ReplansAvoided int `json:"replans_avoided"`
	// Ladder counts recovery commits per rung ("project", "replan",
	// "shrink", "drain").
	Ladder map[string]int `json:"ladder"`
	// Retries counts timeout retries; Pauses counts pause-and-wait
	// episodes.
	Retries int `json:"retries"`
	Pauses  int `json:"pauses"`
	// Recoveries holds the wall time of each recovery (detection →
	// resumed training: replan + reshard + restore).
	Recoveries []time.Duration `json:"recoveries_ns"`
	// IterationsExecuted counts every iteration the fleet ran,
	// including partial segments discarded by a rollback; StepsLost is
	// the discarded portion. Availability derives from the two.
	IterationsExecuted int `json:"iterations_executed"`
	StepsLost          int `json:"steps_lost"`
	// FinalCadence is the adaptive checkpoint cadence at exit.
	FinalCadence int `json:"final_cadence"`
	// Notices counts preempt notices received; CleanDrains the
	// notice-driven drains completed with zero lost steps (proactive
	// switchover or idle reclaim inside the window); NoticesMissed the
	// notices whose window could not absorb a checkpoint, so the
	// reclaim fell back to the Preempt path.
	Notices       int `json:"notices"`
	CleanDrains   int `json:"clean_drains"`
	NoticesMissed int `json:"notices_missed"`
	// NoticeMisses holds the typed error recorded for each missed
	// notice, in schedule order.
	NoticeMisses []*NoticeMissedError `json:"notice_misses"`
	// Transitions is the full supervisor decision log.
	Transitions []Transition `json:"transitions"`
}

// Availability is the fraction of executed iterations that counted
// toward training progress (1 = no work was ever discarded).
func (r *Report) Availability() float64 {
	if r.IterationsExecuted == 0 {
		return 1
	}
	return float64(len(r.Losses)) / float64(r.IterationsExecuted)
}

// RecoveryPercentile returns the q-quantile (0 ≤ q ≤ 1) of recovery
// wall times, or 0 when no recovery happened.
func (r *Report) RecoveryPercentile(q float64) time.Duration {
	if len(r.Recoveries) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.Recoveries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// publish adds the ledger to reg: each series is the Report field it
// is named after, the labelled families one series per map key (or
// transition kind), and the recovery histogram one observation per
// recovery. Runs published into one registry sum.
func (r *Report) publish(reg *obs.Registry) {
	for name, v := range map[string]int64{
		obs.ElasticCheckpointsTotal:       int64(r.Checkpoints),
		obs.ElasticRestoresTotal:          int64(r.Restores),
		obs.ElasticReshardsTotal:          int64(r.Reshards),
		obs.ElasticReshardBytesMovedTotal: r.ReshardBytesMoved,
		obs.ChurnFaultsTotal:              int64(r.FaultsDetected),
		obs.ChurnReplansTotal:             int64(r.Replans),
		obs.ChurnReplansAvoidedTotal:      int64(r.ReplansAvoided),
		obs.ChurnBackoffRetriesTotal:      int64(r.Retries),
		obs.ChurnPausesTotal:              int64(r.Pauses),
		obs.ChurnStepsLostTotal:           int64(r.StepsLost),
		obs.SpotNoticesTotal:              int64(r.Notices),
		obs.SpotCleanDrainsTotal:          int64(r.CleanDrains),
		obs.SpotNoticesMissedTotal:        int64(r.NoticesMissed),
		obs.SpotPrewarmReplansTotal:       int64(r.PrewarmReplans),
	} {
		reg.Counter(name).Add(v)
	}
	for kind, n := range r.EventCounts {
		reg.Counter(obs.Labeled(obs.ChurnEventsTotal, "kind", kind)).Add(int64(n))
	}
	for rung, n := range r.Ladder {
		reg.Counter(obs.Labeled(obs.ChurnLadderTotal, "rung", rung)).Add(int64(n))
	}
	for _, tr := range r.Transitions {
		reg.Counter(obs.Labeled(obs.ChurnTransitionsTotal, "kind", string(tr.Kind))).Inc()
	}
	h := reg.Histogram(obs.ChurnRecovery, obs.SecondsBuckets...)
	for _, d := range r.Recoveries {
		h.Observe(d.Seconds())
	}
}

// Supervise runs job.Iters iterations of training under a churn
// schedule — preemptions, re-additions, stragglers, fabric derates,
// reclaim notices — recovering from every event per the configured
// policies: backoff for transient timeouts, hysteresis before paying
// for a replan search, a checkpoint cadence that adapts to the observed
// fault rate, and a graceful-degradation ladder (project → warm replan
// → shrink → pause) when capacity drops. A single device failure is the
// schedule's smallest input: one Preempt event. Every decision is
// emitted as a typed Transition.
//
// job.Cluster must be healthy (Faults == nil): it is the reference
// frame the schedule's physical device ranks live in. On success the
// final trajectory matches an uninterrupted run of the same model to
// floating-point tolerance — checkpoint and reshard are exact and every
// valid config is semantics-preserving, so churn costs only wall time,
// never training fidelity.
func Supervise(ctx context.Context, job Job, spec ChurnSpec, opt Options) (*Report, error) {
	if job.Cluster.Faults != nil {
		return nil, fmt.Errorf("elastic: Supervise needs a healthy cluster (degrade via the churn schedule)")
	}
	if err := spec.Validate(job.Cluster.TotalDevices()); err != nil {
		return nil, err
	}
	s := newSupervisor(ctx, job, spec, opt.withDefaults())
	// The ledger closes once, on every return: the state reached and
	// its counts, published when a registry is configured.
	defer func() {
		s.rep.Params, s.rep.Config = s.curP, s.cur
		s.rep.FinalStep, s.rep.FinalCadence = s.curP.Step, s.cadence
		if s.opt.Metrics != nil {
			s.rep.publish(s.opt.Metrics)
		}
	}()
	// Clear temp files orphaned by a crash mid-Save before the lineage
	// starts growing again.
	if s.opt.Dir != "" {
		if _, err := SweepTemps(s.opt.Dir); err != nil {
			return nil, err
		}
	}
	// Checkpoint before the first iteration so even an iteration-0 fault
	// has something to restore.
	if err := s.saveCkpt(); err != nil {
		return nil, err
	}
	return s.rep, s.run()
}

// ckptPath is the single-lineage checkpoint file under dir.
func ckptPath(dir string) string { return filepath.Join(dir, "aceso.ckpt") }

// persist saves the checkpoint when a directory is configured.
func persist(dir string, st *State) error {
	if dir == "" {
		return nil
	}
	return Save(ckptPath(dir), st)
}
