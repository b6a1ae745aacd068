package elastic

import (
	"time"

	"aceso/internal/config"
)

// Pending notice-driven drains. The state machine per notice:
//
//	notice at I (window W, deadline D = I+W)
//	  ├─ W ≥ CheckpointCost: ARM — immediate out-of-cadence
//	  │    checkpoint + pre-warmed Replan on the post-reclaim fleet
//	  │    while the doomed device still serves; switchover fires at
//	  │    the boundary switchIter = D − CheckpointCost, so the
//	  │    final checkpoint completes inside the window → commit the
//	  │    pre-warmed plan (ladder fallback) with ZERO lost steps.
//	  └─ W < CheckpointCost: MISSED — record *NoticeMissedError and
//	       schedule a plain Preempt at D: the reclaim fires through
//	       the existing in-plan path (mid-segment fault, rollback,
//	       cadence adaptation, ladder).
//
// A real preempt of a drained device before its switchover cancels
// the drain (settleDrains drops dead devices).
type pendingDrain struct {
	device     int
	switchIter int            // absolute iteration the switchover fires at
	plan       *config.Config // pre-warmed post-reclaim plan (nil: ladder fallback)
}

// insertEvent splices a synthetic event into the sorted schedule after
// every pending event at the same iteration (stable order).
func (s *supervisor) insertEvent(ev ChurnEvent) {
	at := len(s.events)
	for i := s.ei; i < len(s.events); i++ {
		if s.events[i].Iteration > ev.Iteration {
			at = i
			break
		}
	}
	s.events = append(s.events, ChurnEvent{})
	copy(s.events[at+1:], s.events[at:])
	s.events[at] = ev
}

// beginDrain consumes one PreemptNotice at a boundary.
func (s *supervisor) beginDrain(ev ChurnEvent) error {
	s.countEvent(ev)
	if s.fl.dead[ev.Device] {
		s.emit(s.curP.Step, TransEvent, "preempt-notice device %d (already dead)", ev.Device)
		return nil
	}
	for _, d := range s.drains {
		if d.device == ev.Device {
			s.emit(s.curP.Step, TransEvent, "preempt-notice device %d (drain already armed for iteration %d)", ev.Device, d.switchIter)
			return nil
		}
	}
	s.rep.Notices++
	cost := s.opt.CheckpointCost
	deadline := ev.Iteration + ev.Notice
	if ev.Notice < cost {
		nm := &NoticeMissedError{Device: ev.Device, Window: ev.Notice, Cost: cost, Deadline: deadline}
		s.rep.NoticesMissed++
		s.rep.NoticeMisses = append(s.rep.NoticeMisses, nm)
		s.emit(s.curP.Step, TransNoticeMissed, "%v", nm)
		s.insertEvent(ChurnEvent{Iteration: deadline, Kind: Preempt, Device: ev.Device})
		return nil
	}
	s.emit(s.curP.Step, TransNotice, "preempt notice for device %d: reclaim at iteration %d (%d-iteration window ≥ checkpoint cost %d); drain armed",
		ev.Device, deadline, ev.Notice, cost)
	// Immediate out-of-cadence checkpoint: even if the fleet churns
	// again before the switchover, rollback reaches at most the
	// notice, never past it.
	if err := s.saveCkpt(); err != nil {
		return err
	}
	// Pre-warm the replan on the post-reclaim fleet while the doomed
	// device still serves; the switchover commits it without searching
	// inside the window.
	var plan *config.Config
	if s.inUse(ev.Device) && s.fl.alive() > 1 {
		s.fl.dead[ev.Device] = true
		postSpec := s.fl.spec()
		delete(s.fl.dead, ev.Device)
		s.rep.PrewarmReplans++
		if post, derr := s.fl.healthy.Degrade(postSpec); derr == nil {
			plan, _ = s.replan(postSpec, &post, s.curP) // a failed search leaves the ladder fallback
		}
	}
	s.drains = append(s.drains, &pendingDrain{
		device:     ev.Device,
		switchIter: deadline - cost,
		plan:       plan,
	})
	return nil
}

// fireSwitch executes one armed drain at its switchover boundary. The
// boundary checkpoint (saved after the last segment) plus the final
// save here mean commit rolls forward from the current step: zero lost
// steps by construction.
func (s *supervisor) fireSwitch(d *pendingDrain) error {
	if err := s.saveCkpt(); err != nil {
		return err
	}
	began := time.Now()
	wasInUse := s.inUse(d.device)
	preT := s.estimate(&s.active, s.cur)
	s.fl.kill(d.device)
	if err := s.syncActive(); err != nil {
		return err
	}
	if !wasInUse {
		s.rep.CleanDrains++
		s.emit(s.curP.Step, TransDrain, "device %d drained at iteration %d (idle spare, %d alive)", d.device, s.done, s.fl.alive())
		return nil
	}
	if s.fl.alive() > 0 && d.plan != nil && runnableOn(s.job.Graph, &s.active, d.plan, s.curP) {
		if err := s.commit(d.plan); err != nil {
			return err
		}
		if err := s.saveCkpt(); err != nil { // re-anchor on the new layout
			return err
		}
		s.rep.CleanDrains++
		s.rep.Ladder["drain"]++
		s.recovered(began)
		s.emit(s.curP.Step, TransDrain, "device %d drained at iteration %d: switched to pre-warmed plan (%d devices, %d stages), zero lost steps",
			d.device, s.done, s.cur.TotalDevices(), s.cur.NumStages())
		return nil
	}
	// The pre-warmed plan no longer fits (the fleet churned since the
	// notice) or never existed: recover down the ordinary ladder. The
	// deadline checkpoint keeps the drain lossless.
	ok, err := s.ladder(preT)
	if err != nil {
		return err
	}
	if ok {
		s.rep.CleanDrains++
		s.recovered(began)
		s.emit(s.curP.Step, TransDrain, "device %d drained at iteration %d via ladder, zero lost steps", d.device, s.done)
		return nil
	}
	// The segment loop's runnability check pauses.
	s.emit(s.curP.Step, TransDrain, "device %d drained at iteration %d; no runnable plan on %d survivors — pausing", d.device, s.done, s.fl.alive())
	return nil
}

// settleDrains cancels drains of devices that died by other means and
// fires every drain whose switchover boundary has arrived.
func (s *supervisor) settleDrains() error {
	kept := s.drains[:0]
	for _, d := range s.drains {
		if s.fl.dead[d.device] {
			continue // an unnoticed preempt got there first
		}
		if s.done < d.switchIter {
			kept = append(kept, d)
			continue
		}
		if err := s.fireSwitch(d); err != nil {
			return err
		}
	}
	s.drains = kept
	return nil
}
