package elastic

import (
	"fmt"
	"math"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
	"aceso/internal/runtime"
)

// runnableOn checks a candidate against the runtime's preflight. The
// candidate need not fill the cluster: a shrunken plan validates
// against its own device count and merely has to fit within the
// survivors.
func runnableOn(g *model.Graph, cl *hardware.Cluster, c *config.Config, p *runtime.Params) bool {
	return c != nil && c.TotalDevices() <= cl.TotalDevices() && runtime.CheckRunnable(g, c, p) == nil
}

// backoffDelay is the capped exponential backoff with deterministic
// jitter: attempt n waits backoffBase·2^(n-1), capped at backoffCap,
// plus up to half of that again, derived from (seed, attempt) by a
// splitmix-style hash so retries are reproducible yet de-synchronized
// across seeds.
func backoffDelay(attempt int, seed int64) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	z := uint64(seed) + uint64(attempt)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	jitter := time.Duration(z % uint64(d/2+1))
	return d + jitter
}

// estimate prices plan c's iteration time on a cluster, or +Inf when
// the plan does not fit it (infeasible or oversubscribed) — the common
// currency of the hysteresis and ladder quality checks.
func (s *supervisor) estimate(cl *hardware.Cluster, c *config.Config) float64 {
	if c == nil || c.TotalDevices() > cl.TotalDevices() {
		return math.Inf(1)
	}
	e := perfmodel.New(s.job.Graph, *cl, s.opt.Seed).Estimate(c)
	if e == nil || !e.Feasible || !(e.IterTime > 0) || math.IsInf(e.IterTime, 0) {
		return math.Inf(1)
	}
	return e.IterTime
}

// replan runs one warm Replan search from the running plan against a
// fleet state and returns the best candidate (best first) the runtime
// can execute with p on cl, or nil.
func (s *supervisor) replan(spec hardware.FaultSpec, cl *hardware.Cluster, p *runtime.Params) (*config.Config, error) {
	s.rep.Replans++
	res, err := core.Replan(s.ctx, s.job.Graph, s.fl.healthy, spec, s.cur, core.Options{
		TimeBudget: s.opt.SearchBudget,
		Seed:       s.opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	for _, cand := range res.TopK {
		if runnableOn(s.job.Graph, cl, cand.Config, p) {
			return cand.Config, nil
		}
	}
	return nil, nil
}

// ladder walks the graceful-degradation rungs after capacity changed:
// reuse the projection when its projected slowdown against preT is
// tolerable, otherwise pay for a warm replan, otherwise shrink to the
// largest runnable subset. It reports false when no rung produced a
// plan (the caller pauses).
func (s *supervisor) ladder(preT float64) (bool, error) {
	if s.fl.alive() == 0 {
		return false, nil
	}
	// Candidates are filtered against curP: a fault tears its values,
	// never its shapes.
	g, survivors := s.job.Graph, s.active.TotalDevices()

	var next *config.Config
	rung := ""
	if proj, perr := core.ProjectConfig(g, s.cur, survivors); perr == nil && runnableOn(g, &s.active, proj, s.curP) {
		next, rung = proj, "project"
	}
	escalate := next == nil
	if next != nil {
		projT := s.estimate(&s.active, next)
		if !math.IsInf(preT, 1) && preT > 0 && (projT-preT)/preT >= replanThreshold {
			escalate = true
		} else {
			// The projection is within tolerance of the pre-fault plan:
			// hysteresis just avoided a replan search.
			s.rep.ReplansAvoided++
		}
	}
	if escalate {
		if cand, rerr := s.replan(s.fl.spec(), &s.active, s.curP); rerr == nil && cand != nil &&
			(next == nil || s.estimate(&s.active, cand) < s.estimate(&s.active, next)) {
			next, rung = cand, "replan"
		}
	}
	if next == nil {
		for n := survivors - 1; n >= 1; n-- {
			if proj, perr := core.ProjectConfig(g, s.cur, n); perr == nil && runnableOn(g, &s.active, proj, s.curP) {
				next, rung = proj, "shrink"
				break
			}
		}
	}
	if next == nil {
		return false, nil
	}
	if err := s.commit(next); err != nil {
		return false, err
	}
	s.rep.Ladder[rung]++
	switch rung {
	case "project":
		s.emit(s.curP.Step, TransLadderProject, "projected plan onto %d survivors (search avoided)", survivors)
	case "replan":
		s.emit(s.curP.Step, TransLadderReplan, "warm replan onto %d survivors (%d stages)", survivors, s.cur.NumStages())
	case "shrink":
		s.emit(s.curP.Step, TransLadderShrink, "shrunk to %d of %d survivors", s.cur.TotalDevices(), survivors)
	}
	return true, nil
}

// hysteresis is the replan decision after a boundary event changed the
// fleet from before to active: defer transient blips, replan when the
// projected throughput loss (or idle capacity) crosses the threshold or
// persists.
func (s *supervisor) hysteresis(before hardware.Cluster) error {
	oldT := s.estimate(&before, s.cur)
	newT := s.estimate(&s.active, s.cur)
	lossFrac := 0.0
	switch {
	case math.IsInf(newT, 1):
		lossFrac = math.Inf(1) // current plan no longer fits: must act
	case !math.IsInf(oldT, 1) && oldT > 0:
		lossFrac = (newT - oldT) / oldT
	}
	gainFrac := 0.0
	if s.cur.TotalDevices() > 0 {
		gainFrac = float64(s.active.TotalDevices()-s.cur.TotalDevices()) / float64(s.cur.TotalDevices())
	}
	const eps = 1e-9
	if lossFrac < -eps {
		// Things got faster (a restore): degradation pressure is gone.
		s.pendingDefer = 0
	}
	trigger := lossFrac >= replanThreshold || gainFrac >= replanThreshold
	forced := ""
	if trigger {
		forced = fmt.Sprintf("projected loss %.1f%%, idle capacity %.1f%% over threshold %.0f%%",
			100*lossFrac, 100*gainFrac, 100*replanThreshold)
	} else if lossFrac > eps || gainFrac > eps {
		s.pendingDefer++
		if s.pendingDefer >= hysteresisEvents {
			trigger = true
			forced = fmt.Sprintf("degradation persisted across %d deferred events", s.pendingDefer)
		} else {
			s.rep.ReplansAvoided++
			s.emit(s.curP.Step, TransReplanDeferred, "projected loss %.1f%%, idle capacity %.1f%% below threshold %.0f%% (%d/%d deferred)",
				100*lossFrac, 100*gainFrac, 100*replanThreshold, s.pendingDefer, hysteresisEvents)
		}
	}
	if !trigger {
		return nil
	}
	s.emit(s.curP.Step, TransReplanForced, "%s", forced)
	s.pendingDefer = 0
	// State is intact at a boundary: checkpoint it, search, reshard.
	if err := s.saveCkpt(); err != nil {
		return err
	}
	next, err := s.replan(s.fl.spec(), &s.active, s.curP)
	if err != nil {
		s.emit(s.curP.Step, TransReplanKept, "replan search failed (%v); keeping current plan", err)
		return nil
	}
	if next == nil || next.Hash() == s.cur.Hash() || !(s.estimate(&s.active, next) < newT) {
		s.emit(s.curP.Step, TransReplanKept, "replan found no better runnable plan; keeping current")
		return nil
	}
	if err := s.commit(next); err != nil {
		return err
	}
	if err := s.saveCkpt(); err != nil { // re-anchor the lineage on the new layout
		return err
	}
	s.emit(s.curP.Step, TransResume, "replanned onto %d devices, %d stages", s.cur.TotalDevices(), s.cur.NumStages())
	return nil
}

// adaptCadence moves the checkpoint cadence toward half the expected
// inter-fault gap after a fault at absolute iteration at.
func (s *supervisor) adaptCadence(at int) {
	gap := float64(at + 1)
	if s.lastFaultAt >= 0 {
		gap = float64(at - s.lastFaultAt)
		if gap < 1 {
			gap = 1
		}
	}
	s.lastFaultAt = at
	if s.emaGap == 0 {
		s.emaGap = gap
	} else {
		s.emaGap = 0.5*s.emaGap + 0.5*gap
	}
	newCad := int(math.Round(s.emaGap / 2))
	if newCad < 1 {
		newCad = 1
	}
	if newCad > s.opt.MaxCadence {
		newCad = s.opt.MaxCadence
	}
	if newCad != s.cadence {
		s.emit(s.ckpt.Step, TransCadence, "checkpoint cadence %d → %d (inter-fault EMA %.1f iters)", s.cadence, newCad, s.emaGap)
		s.cadence = newCad
	}
}

// pauseAndWait is the ladder's last rung: consume the remaining
// schedule while training is impossible, resuming at the first point
// the ladder finds a plan.
func (s *supervisor) pauseAndWait() error {
	s.rep.Pauses++
	s.emit(s.ckpt.Step, TransLadderPause, "paused: %d devices alive, no runnable plan; waiting for capacity", s.fl.alive())
	for s.ei < len(s.events) {
		ev := s.events[s.ei]
		s.ei++
		if err := s.applyEvent(ev); err != nil {
			return err
		}
		if s.fl.alive() == 0 {
			continue
		}
		if s.activeStale {
			if err := s.syncActive(); err != nil {
				return err
			}
		}
		ok, err := s.ladder(math.Inf(1))
		if err != nil {
			return err
		}
		if ok {
			s.emit(s.curP.Step, TransResume, "capacity restored: resumed on %d devices", s.active.TotalDevices())
			return nil
		}
	}
	return &StalledError{Step: s.ckpt.Step, Alive: s.fl.alive()}
}
