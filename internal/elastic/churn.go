// The churn vocabulary: the fleet events a supervised run can
// experience (ChurnEvent, ChurnSpec), the typed decision log the
// supervisor keeps (Transition) and the typed errors it reports.

package elastic

import (
	"fmt"
	"math"
)

// ChurnKind enumerates the fleet events a training run can experience.
type ChurnKind uint8

const (
	// Preempt removes a physical device (spot reclaim, crash). If the
	// device is part of the running plan the loss surfaces through the
	// runtime as a mid-iteration *DeviceLostError; an idle spare is
	// removed at the segment boundary.
	Preempt ChurnKind = iota
	// Readd returns a previously-removed or derated physical device to
	// full service (its logical rank re-expands when the active cluster
	// is re-derived from the fleet state).
	Readd
	// SlowNode derates a device's throughput to Scale (thermal
	// throttling, a noisy neighbor). Scale 1 restores full speed.
	SlowNode
	// LinkDerate scales the cluster's link bandwidth to Scale
	// (congestion, a flaky NIC). Scale 1 restores the healthy fabric.
	LinkDerate
	// PreemptNotice announces that Device will be reclaimed Notice
	// iterations after Iteration — the advance warning spot capacity
	// gives before a reclaim. The supervisor drains the device
	// proactively: immediate checkpoint, pre-warmed replan on the
	// post-reclaim fleet while the doomed device still serves, and a
	// switchover timed so the final checkpoint completes inside the
	// window — zero lost steps when Notice ≥ CheckpointCost. A window
	// too short for a checkpoint falls back to the plain Preempt path
	// (typed *NoticeMissedError).
	PreemptNotice

	numChurnKinds
)

// String implements fmt.Stringer.
func (k ChurnKind) String() string {
	switch k {
	case Preempt:
		return "preempt"
	case Readd:
		return "readd"
	case SlowNode:
		return "slow-node"
	case LinkDerate:
		return "link-derate"
	case PreemptNotice:
		return "preempt-notice"
	}
	return fmt.Sprintf("churn-kind-%d", uint8(k))
}

// ChurnEvent is one fleet change, due at the boundary of the 0-based
// absolute training iteration Iteration (in-plan preemptions fire
// mid-iteration through the runtime's fault injection instead).
type ChurnEvent struct {
	Iteration int
	Kind      ChurnKind
	// Device is the physical rank on the healthy cluster (Preempt,
	// Readd, SlowNode; ignored for LinkDerate).
	Device int
	// Scale is the derate factor for SlowNode (FLOPS) and LinkDerate
	// (bandwidth): (0, 1), with 1 meaning "restored".
	Scale float64
	// Notice is PreemptNotice's advance warning in iterations: the
	// device is reclaimed at Iteration+Notice. Ignored by other kinds.
	Notice int
}

// ChurnSpec is a schedule of churn events. Order does not matter;
// Supervise sorts a copy by iteration (stable, so same-iteration
// events keep their relative order). Events stamped past the run's
// iteration count are normally never reached, but a paused run (see
// the degradation ladder) consumes the remaining schedule in order
// while it waits for capacity.
type ChurnSpec struct {
	Events []ChurnEvent
}

// Validate checks the schedule against a cluster size. All failure
// modes are errors, never panics — specs may come from fuzzers.
func (s *ChurnSpec) Validate(totalDevices int) error {
	for i, ev := range s.Events {
		if ev.Iteration < 0 {
			return fmt.Errorf("elastic: event %d: iteration %d < 0", i, ev.Iteration)
		}
		if ev.Kind >= numChurnKinds {
			return fmt.Errorf("elastic: event %d: unknown kind %d", i, uint8(ev.Kind))
		}
		if ev.Kind != LinkDerate && (ev.Device < 0 || ev.Device >= totalDevices) {
			return fmt.Errorf("elastic: event %d: device %d out of range [0, %d)", i, ev.Device, totalDevices)
		}
		if ev.Kind == SlowNode || ev.Kind == LinkDerate {
			if math.IsNaN(ev.Scale) || ev.Scale <= 0 || ev.Scale > 1 {
				return fmt.Errorf("elastic: event %d: scale %v outside (0, 1]", i, ev.Scale)
			}
		}
		if ev.Kind == PreemptNotice && ev.Notice < 0 {
			return fmt.Errorf("elastic: event %d: negative notice window %d", i, ev.Notice)
		}
	}
	return nil
}

// TransitionKind labels supervisor state transitions.
type TransitionKind string

// Supervisor transition kinds, in rough lifecycle order.
const (
	TransEvent          TransitionKind = "event"           // churn event applied at a boundary
	TransFault          TransitionKind = "fault"           // in-plan device loss detected mid-segment
	TransCadence        TransitionKind = "cadence"         // adaptive checkpoint cadence changed
	TransLadderProject  TransitionKind = "ladder-project"  // recovered via ProjectConfig (no search)
	TransLadderReplan   TransitionKind = "ladder-replan"   // recovered via warm Replan search
	TransLadderShrink   TransitionKind = "ladder-shrink"   // shrunk to the largest runnable subset
	TransLadderPause    TransitionKind = "ladder-pause"    // out of capacity; waiting for re-addition
	TransResume         TransitionKind = "resume"          // training resumed after recovery
	TransReplanDeferred TransitionKind = "replan-deferred" // hysteresis absorbed a degradation
	TransReplanForced   TransitionKind = "replan-forced"   // threshold or persistence forced a replan
	TransReplanKept     TransitionKind = "replan-kept"     // forced replan found nothing better
	TransBackoffRetry   TransitionKind = "backoff-retry"   // timeout retried after backoff
	TransNotice         TransitionKind = "preempt-notice"  // advance reclaim warning received; drain armed
	TransDrain          TransitionKind = "notice-drain"    // proactive switchover completed inside the window
	TransNoticeMissed   TransitionKind = "notice-missed"   // window too short for a checkpoint; reclaim falls back to preempt
)

// Transition is one supervisor decision, stamped with the optimizer
// step it was taken at.
type Transition struct {
	Step   int            `json:"step"`
	Kind   TransitionKind `json:"kind"`
	Detail string         `json:"detail"`
}

// StalledError reports a supervised run that ran out of capacity with
// no re-addition left in the churn schedule: the graceful-degradation
// ladder reached pause-and-wait and the wait cannot end.
type StalledError struct {
	Step  int // optimizer step of the last durable checkpoint
	Alive int // devices still alive
}

// Error implements the error interface.
func (e *StalledError) Error() string {
	return fmt.Sprintf("elastic: training stalled at step %d: %d devices alive and no usable re-addition left in the churn schedule",
		e.Step, e.Alive)
}

// NoticeMissedError reports a preempt notice whose window could not
// absorb a checkpoint (Window < CheckpointCost): the proactive drain
// is impossible and the reclaim falls back to the in-plan Preempt
// path, where the partial segment at the deadline is lost. Recorded in
// Report.NoticeMisses and counted in Report.NoticesMissed rather than
// returned — the supervisor still recovers.
type NoticeMissedError struct {
	Device   int
	Window   int // iterations of advance warning the notice gave
	Cost     int // configured checkpoint cost in iterations
	Deadline int // absolute iteration the device is reclaimed at
}

// Error implements the error interface.
func (e *NoticeMissedError) Error() string {
	return fmt.Sprintf("elastic: preempt notice for device %d missed: %d-iteration window cannot absorb a %d-iteration checkpoint; reclaim at iteration %d falls back to the preempt path",
		e.Device, e.Window, e.Cost, e.Deadline)
}
