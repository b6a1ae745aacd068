package elastic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"aceso/internal/comm"
	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/runtime"
)

// supervisor is the state of one Supervise call. Its methods are split
// by layer: the checkpoint lineage and the segment loop here, the fleet
// view in fleet.go, the recovery policies in policy.go and the reclaim
// notice state machine in drain.go.
type supervisor struct {
	ctx context.Context
	job Job
	opt Options
	rep *Report

	// The schedule, sorted by iteration; events[:ei] are consumed.
	events []ChurnEvent
	ei     int

	// Fleet view: fl is the composed health state, active the cluster
	// derived from it. activeStale marks that active could not follow
	// the fleet (all dead, which Degrade cannot represent); the next
	// event that restores capacity resyncs from the composed state.
	fl          fleet
	active      hardware.Cluster
	activeStale bool

	// The running plan and state, and progress in iterations since
	// stepZero (the optimizer step the job started at).
	cur      *config.Config
	curP     *runtime.Params
	stepZero int
	done     int

	// The durable lineage: ckpt is the last durable state, ckptAt the
	// cluster it was taken on (for physical-rank move accounting).
	ckpt   *State
	ckptAt hardware.Cluster

	// Policy state.
	cadence      int
	pendingDefer int // consecutive degradations hysteresis absorbed
	retries      int // consecutive timeout retries of this segment
	simLeft      int // synthetic timeouts still to inject
	lastFaultAt  int
	emaGap       float64 // inter-fault gap EMA, in iterations

	drains []*pendingDrain
}

func newSupervisor(ctx context.Context, job Job, spec ChurnSpec, opt Options) *supervisor {
	events := append([]ChurnEvent(nil), spec.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Iteration < events[j].Iteration })
	cadence := opt.CheckpointEvery
	if cadence > opt.MaxCadence {
		cadence = opt.MaxCadence
	}
	return &supervisor{
		ctx: ctx, job: job, opt: opt,
		rep:         &Report{EventCounts: map[string]int{}, Ladder: map[string]int{}},
		events:      events,
		fl:          fleet{healthy: job.Cluster, dead: map[int]bool{}, slow: map[int]float64{}},
		active:      job.Cluster,
		cur:         job.Config,
		curP:        job.Params,
		stepZero:    job.Params.Step,
		ckptAt:      job.Cluster,
		cadence:     cadence,
		simLeft:     opt.SimulateTimeouts,
		lastFaultAt: -1,
	}
}

// emit records one transition at an optimizer step.
func (s *supervisor) emit(step int, kind TransitionKind, format string, args ...any) {
	s.rep.Transitions = append(s.rep.Transitions, Transition{Step: step, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// countEvent books one consumed schedule event.
func (s *supervisor) countEvent(ev ChurnEvent) {
	s.rep.EventsApplied++
	s.rep.EventCounts[ev.Kind.String()]++
}

// recovered books one recovery that began at began.
func (s *supervisor) recovered(began time.Time) {
	s.rep.Recoveries = append(s.rep.Recoveries, time.Since(began))
}

// saveCkpt makes the running state the durable one.
func (s *supervisor) saveCkpt() error {
	st, err := ShardState(s.job.Graph, s.cur, s.curP)
	if err != nil {
		return err
	}
	if err := persist(s.opt.Dir, st); err != nil {
		return err
	}
	s.ckpt, s.ckptAt = st, s.active
	s.rep.Checkpoints++
	return nil
}

// loadCkpt returns the durable state, through the file when one is
// configured.
func (s *supervisor) loadCkpt() (*State, error) {
	if s.opt.Dir != "" {
		st, err := Load(ckptPath(s.opt.Dir))
		if err != nil {
			return nil, err
		}
		s.ckpt = st
	}
	return s.ckpt, nil
}

// resume makes a durable state the running one: assembled into
// runtime.Params, with progress rolled back to its step.
func (s *supervisor) resume(st *State) error {
	p, err := AssembleState(st)
	if err != nil {
		return err
	}
	p.Arch = s.curP.Arch
	s.curP = p
	s.done = st.Step - s.stepZero
	s.rep.Restores++
	return nil
}

// commit reshards the durable checkpoint onto next and makes it the
// running plan, rolling progress back to the checkpointed step.
// Training resumes from the *resharded* state, not an assembly
// shortcut: this is the path that proves reshard exactness end to end.
func (s *supervisor) commit(next *config.Config) error {
	st, err := s.loadCkpt()
	if err != nil {
		return err
	}
	resharded, err := Reshard(s.job.Graph, next, st)
	if err != nil {
		return err
	}
	s.rep.Reshards++
	// Bytes moved compares physical devices: the checkpoint's ranks are
	// logical on the cluster it was taken on, the new plan's on active.
	s.rep.ReshardBytesMoved += BytesMoved(st, resharded, physMap(s.ckptAt), physMap(s.active))
	if err := s.resume(resharded); err != nil {
		return err
	}
	s.cur = next
	return nil
}

// run is the segment loop: settle what is due at the boundary, train
// one segment, checkpoint, and recover from whatever the segment
// returned.
func (s *supervisor) run() error {
	for s.done < s.job.Iters {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		if err := s.settleBoundary(); err != nil {
			return err
		}
		if s.fl.alive() == 0 || !runnableOn(s.job.Graph, &s.active, s.cur, s.curP) {
			began := time.Now()
			if err := s.pauseAndWait(); err != nil {
				return err
			}
			s.recovered(began)
			continue
		}

		seg, fp := s.nextSegment()
		losses, err := s.train(seg, fp)
		if err == nil {
			if fp != nil {
				return fmt.Errorf("elastic: planned preemption of device %d did not surface", s.events[s.ei].Device)
			}
			s.rep.Losses = append(s.rep.Losses, losses...)
			s.rep.Steps = append(s.rep.Steps, s.curP.Step)
			s.rep.IterationsExecuted += seg
			s.done += seg
			s.retries = 0
			if err := s.saveCkpt(); err != nil {
				return err
			}
			continue
		}

		// Partial losses of a failed segment are discarded: the state is
		// torn.
		var lost *runtime.DeviceLostError
		var timeout *comm.CollectiveTimeoutError
		switch {
		case errors.As(err, &lost):
			if fp == nil {
				// A device loss nothing scheduled: not ours to recover.
				return err
			}
			if err := s.recoverLoss(lost); err != nil {
				return err
			}
		case errors.As(err, &timeout):
			if err := s.retryTimeout(timeout, err); err != nil {
				return err
			}
		default:
			return err
		}
	}
	return nil
}

// settleBoundary consumes the schedule events due at the current
// boundary, then fires the drains whose switchover has arrived. In-plan
// preemptions stay queued: they fire through the runtime mid-segment.
func (s *supervisor) settleBoundary() error {
	for s.ei < len(s.events) && s.events[s.ei].Iteration <= s.done {
		ev := s.events[s.ei]
		if s.inPlanPreempt(&ev) {
			break
		}
		s.ei++
		if ev.Kind == PreemptNotice {
			// Notices do not change the fleet; they arm a drain.
			if err := s.beginDrain(ev); err != nil {
				return err
			}
			continue
		}
		before := s.active
		if err := s.applyEvent(ev); err != nil {
			return err
		}
		if s.fl.alive() == 0 {
			break
		}
		if err := s.hysteresis(before); err != nil {
			return err
		}
	}
	return s.settleDrains()
}

// nextSegment sizes the next segment: the adaptive cadence, clipped to
// the end of the run, to the next drain switchover (so its boundary
// checkpoint lands exactly CheckpointCost iterations before the
// deadline) and to the next scheduled boundary event. When the next
// event is an in-plan preemption inside the segment it returns the
// fault plan that fires it; the event stays at events[ei] until the
// runtime reports the loss.
func (s *supervisor) nextSegment() (seg int, fp *runtime.FaultPlan) {
	seg = s.cadence
	if left := s.job.Iters - s.done; left < seg {
		seg = left
	}
	for _, d := range s.drains {
		if n := d.switchIter - s.done; n > 0 && n < seg {
			seg = n
		}
	}
	if s.ei < len(s.events) {
		ev := s.events[s.ei]
		d := ev.Iteration - s.done
		if s.inPlanPreempt(&ev) {
			if d < 0 {
				d = 0
			}
			if d < seg {
				fp = &runtime.FaultPlan{Rank: logicalRank(&s.active, ev.Device), Iteration: d}
			}
		} else if d > 0 && d < seg {
			seg = d
		}
	}
	return seg, fp
}

// train runs one segment on the running plan.
func (s *supervisor) train(seg int, fp *runtime.FaultPlan) ([]float64, error) {
	if s.simLeft > 0 {
		s.simLeft--
		return nil, &comm.CollectiveTimeoutError{Op: "all-reduce", Rank: 0, Waited: s.opt.CommDeadline}
	}
	return runtime.Parallel(s.job.Graph, s.cur, s.curP, s.job.X, s.job.Y, s.opt.LR, seg,
		runtime.RunOptions{CommDeadline: s.opt.CommDeadline, Fault: fp})
}

// recoverLoss handles the scheduled in-plan preemption at events[ei]
// having fired mid-segment: consume the event, fold it into the fleet,
// adapt the cadence and recover down the ladder.
func (s *supervisor) recoverLoss(lost *runtime.DeviceLostError) error {
	ev := s.events[s.ei]
	s.ei++
	s.countEvent(ev)
	s.rep.FaultsDetected++
	wasted := lost.Iteration
	s.rep.IterationsExecuted += wasted
	s.rep.StepsLost += wasted
	at := s.done + wasted
	s.emit(s.ckpt.Step, TransFault, "device %d (stage %d) lost mid-iteration %d; rolling back %d steps",
		ev.Device, lost.Stage, at, wasted)
	s.adaptCadence(at)

	began := time.Now()
	preT := s.estimate(&s.active, s.cur) // pre-fault reference
	s.fl.kill(ev.Device)
	if err := s.syncActive(); err != nil {
		return err
	}
	ok, err := s.ladder(preT)
	if err != nil {
		return err
	}
	if !ok {
		if err := s.pauseAndWait(); err != nil {
			return err
		}
	}
	s.recovered(began)
	s.retries = 0
	s.emit(s.curP.Step, TransResume, "resumed from step %d on %d devices", s.curP.Step, s.cur.TotalDevices())
	return nil
}

// retryTimeout backs off after a collective timeout and restores the
// durable checkpoint — a timed-out segment leaves torn state — before
// the loop retries the segment on the same plan.
func (s *supervisor) retryTimeout(te *comm.CollectiveTimeoutError, cause error) error {
	s.retries++
	s.rep.Retries++
	if s.retries > maxRetries {
		return fmt.Errorf("elastic: segment failed after %d timeout retries: %w", maxRetries, cause)
	}
	delay := backoffDelay(s.retries, s.opt.Seed)
	s.emit(s.ckpt.Step, TransBackoffRetry, "timeout (%s); retry %d/%d after %v", te.Op, s.retries, maxRetries, delay)
	time.Sleep(delay)
	st, err := s.loadCkpt()
	if err != nil {
		return err
	}
	return s.resume(st)
}
