package elastic

import (
	"fmt"
	"sort"

	"aceso/internal/hardware"
)

// fleet is the supervisor's composed view of fleet health, kept in
// healthy-cluster physical ranks so churn events compose naturally.
type fleet struct {
	healthy hardware.Cluster
	dead    map[int]bool
	slow    map[int]float64 // phys → FLOPS scale < 1
	linkBW  float64         // bandwidth scale; 0 or 1 = healthy fabric
}

func (f *fleet) alive() int { return f.healthy.TotalDevices() - len(f.dead) }

// kill marks a device dead; a dead device is no longer a straggler.
func (f *fleet) kill(phys int) {
	f.dead[phys] = true
	delete(f.slow, phys)
}

// spec renders the composed fleet state as a FaultSpec (deterministic
// device order).
func (f *fleet) spec() hardware.FaultSpec {
	var s hardware.FaultSpec
	devs := make([]int, 0, len(f.dead)+len(f.slow))
	for d := range f.dead {
		devs = append(devs, d)
	}
	for d := range f.slow {
		if !f.dead[d] {
			devs = append(devs, d)
		}
	}
	sort.Ints(devs)
	for _, d := range devs {
		if f.dead[d] {
			s.Devices = append(s.Devices, hardware.DeviceFault{Device: d, Dead: true})
		} else {
			s.Devices = append(s.Devices, hardware.DeviceFault{Device: d, FLOPSScale: f.slow[d], MemScale: 1})
		}
	}
	if f.linkBW != 0 && f.linkBW != 1 {
		s.IntraBWScale = f.linkBW
		s.InterBWScale = f.linkBW
	}
	return s
}

// cluster derives the active cluster from the composed state. At least
// one device must be alive.
func (f *fleet) cluster() (hardware.Cluster, error) {
	s := f.spec()
	if len(s.Devices) == 0 && s.IntraBWScale == 0 && s.InterBWScale == 0 {
		return f.healthy, nil
	}
	return f.healthy.Degrade(s)
}

// logicalRank maps a physical device to its logical rank on c, or -1
// if it is dead there.
func logicalRank(c *hardware.Cluster, phys int) int {
	for l := 0; l < c.TotalDevices(); l++ {
		if c.PhysOf(l) == phys {
			return l
		}
	}
	return -1
}

// physMap captures a cluster's logical→physical mapping by value, so
// later mutations of the supervisor's active cluster cannot skew a
// checkpoint's rank accounting.
func physMap(c hardware.Cluster) func(int) int {
	return func(l int) int { return c.PhysOf(l) }
}

// inUse reports whether the running plan spans a physical device.
func (s *supervisor) inUse(phys int) bool {
	l := logicalRank(&s.active, phys)
	return l >= 0 && l < s.cur.TotalDevices()
}

// inPlanPreempt is the one definition of "this preempt event must fire
// mid-iteration through the runtime": the device is alive and the
// running plan actually spans it. The boundary settle and the segment
// scheduler both consult it, so the two sites cannot drift.
func (s *supervisor) inPlanPreempt(ev *ChurnEvent) bool {
	return ev.Kind == Preempt && !s.fl.dead[ev.Device] && s.inUse(ev.Device)
}

// syncActive re-derives active from the composed fleet state — the one
// derivation, after every event. An all-dead fleet only flags
// staleness — the caller's pause rung takes over.
func (s *supervisor) syncActive() error {
	if s.fl.alive() == 0 {
		s.activeStale = true
		return nil
	}
	next, err := s.fl.cluster()
	if err != nil {
		return err
	}
	s.active, s.activeStale = next, false
	return nil
}

// applyEvent folds one schedule event into the fleet state at a point
// where no segment is running, then re-derives the active cluster. It
// does not decide policy.
func (s *supervisor) applyEvent(ev ChurnEvent) error {
	s.countEvent(ev)
	fl, step := &s.fl, s.curP.Step
	switch ev.Kind {
	case Preempt, PreemptNotice:
		// A PreemptNotice only reaches here from pauseAndWait: the
		// segment loop routes notices through beginDrain instead. While
		// paused no segment is running and the state is durably
		// checkpointed, so there is nothing to drain — fold the reclaim
		// directly.
		if fl.dead[ev.Device] {
			s.emit(step, TransEvent, "%s device %d (already dead)", ev.Kind, ev.Device)
			return nil
		}
		fl.kill(ev.Device)
		if ev.Kind == Preempt {
			s.emit(step, TransEvent, "preempt device %d (idle spare, %d alive)", ev.Device, fl.alive())
		} else {
			s.emit(step, TransEvent, "preempt-notice device %d folded as immediate preempt while paused (%d alive)", ev.Device, fl.alive())
		}
	case Readd:
		if !fl.dead[ev.Device] && fl.slow[ev.Device] == 0 {
			s.emit(step, TransEvent, "readd device %d (already healthy)", ev.Device)
			return nil
		}
		delete(fl.dead, ev.Device)
		delete(fl.slow, ev.Device)
		s.emit(step, TransEvent, "readd device %d (%d alive)", ev.Device, fl.alive())
	case SlowNode:
		switch {
		case fl.dead[ev.Device]:
			s.emit(step, TransEvent, "slow-node device %d ignored (dead)", ev.Device)
			return nil
		case ev.Scale == 1 && fl.slow[ev.Device] == 0:
			s.emit(step, TransEvent, "slow-node device %d restored (was healthy)", ev.Device)
			return nil
		case ev.Scale == 1:
			delete(fl.slow, ev.Device)
			s.emit(step, TransEvent, "slow-node device %d restored to full speed", ev.Device)
		default:
			fl.slow[ev.Device] = ev.Scale
			s.emit(step, TransEvent, "slow-node device %d derated to %.2f", ev.Device, ev.Scale)
		}
	case LinkDerate:
		if ev.Scale == 1 {
			fl.linkBW = 0
			s.emit(step, TransEvent, "links restored to full bandwidth")
		} else {
			fl.linkBW = ev.Scale
			s.emit(step, TransEvent, "links derated to %.2f bandwidth", ev.Scale)
		}
	default:
		return fmt.Errorf("elastic: unknown churn kind %d", uint8(ev.Kind))
	}
	return s.syncActive()
}
