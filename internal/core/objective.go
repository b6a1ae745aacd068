package core

import (
	"math"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// objective is what a search minimises and where its pipelines start,
// both derived from the cluster alone (DESIGN.md §5d). On a hazard-free
// fleet a candidate scores its nominal iteration time. When any device
// class carries a preemption hazard it scores its *expected* iteration
// time: nominal time inflated by the rework each preemption forces
// (perfmodel.Rework) plus the amortized checkpoint overhead at the
// plan's own optimal cadence. Each stage is priced at the hazard of the
// device range it lands on, and a stage whose every operator is
// dp-replicated (DP ≥ 2) loses no steps to a preemption, it only pays
// the fixed recovery — so high-hazard devices attract replicated work
// and repel hard-to-move stages.
//
// Built once per search and copied into each worker's searcher; the
// zero value is the hazard-free objective. Nothing outside this file
// asks whether the fleet has spot capacity.
type objective struct {
	cl   *hardware.Cluster
	spot bool // some device carries a live preemption hazard
}

func newObjective(cl *hardware.Cluster) objective {
	return objective{cl: cl, spot: cl.HasSpot()}
}

// Recovery from one preemption (replan + reshard + restore) and one
// checkpoint are priced in units of the candidate's own iteration time,
// which keeps the expected-time objective scale-free. The recommended
// checkpoint cadence is capped: even a plan with nothing exposed to
// rollback should checkpoint occasionally.
const (
	recoveryIters         = 10
	checkpointIters       = 1
	maxRecommendedCadence = 64
)

// score is the objective value of a feasible configuration with
// nominal iteration time t. Small enough to inline: a hazard-free
// search pays this one branch per scored candidate.
func (o *objective) score(cfg *config.Config, t float64) float64 {
	if !o.spot {
		return t
	}
	expected, _ := o.assess(cfg, t)
	return expected
}

// assess prices a feasible configuration with nominal iteration time t:
// the perfmodel expected iteration time at the plan's own Young–Daly
// cadence — driven by the rollback-exposed hazard, replicated stages
// need no rollback protection — plus the recovery-only cost of
// preemptions hitting replicated stages, and that cadence (iterations
// per checkpoint). A hazard-free fleet returns t and 0; a t no plan can
// have (negative, non-finite) is handed back for the caller's poison
// handling.
func (o *objective) assess(cfg *config.Config, t float64) (expected float64, cadence int) {
	if !o.spot || !(t >= 0) || math.IsInf(t, 0) {
		return t, 0
	}
	lam, lamRB := o.hazards(cfg)
	rec, ck := recoveryIters*t, checkpointIters*t
	k := perfmodel.RecommendedCadence(lamRB, t, ck, maxRecommendedCadence)
	if lam <= 0 {
		return t, k
	}
	return perfmodel.ExpectedIterTime(t, lamRB, k, rec, ck) + t*(lam-lamRB)*rec, k
}

// hazards returns the plan's total preemption rate and its
// rollback-exposed share (the hazard of stages that would lose steps,
// i.e. stages with any non-replicated operator), both per second.
func (o *objective) hazards(cfg *config.Config) (lam, lamRB float64) {
	first := 0
	for s := range cfg.Stages {
		st := &cfg.Stages[s]
		h := o.cl.RangeHazard(first, st.Devices) / 3600
		lam += h
		if !stageReplicated(st) {
			lamRB += h
		}
		first += st.Devices
	}
	return lam, lamRB
}

// stageReplicated reports whether every operator of the stage is
// dp-replicated, so a preempted member loses no optimizer state.
func stageReplicated(st *config.Stage) bool {
	if len(st.Ops) == 0 {
		return false
	}
	for j := range st.Ops {
		if st.Ops[j].DP < 2 {
			return false
		}
	}
	return true
}

// RiskAssess prices an existing configuration on a cluster with the
// objective the search optimizes: the expected iteration time under the
// cluster's preemption hazard and the recommended checkpoint cadence.
// Hazard-free clusters return iterTime unchanged and cadence 0.
func RiskAssess(cl *hardware.Cluster, cfg *config.Config, iterTime float64) (expected float64, cadence int) {
	o := newObjective(cl)
	return o.assess(cfg, iterTime)
}

// seeds returns the rule every worker's starting configuration comes
// from — the one place a search decides where a pipeline starts. A
// caller's Initializer, when given, is the rule. Otherwise every fleet
// starts from config.Weighted and what differs is the weights: alike on
// a fleet without device classes (config.Balanced); the summed compute
// capacity of a stage's devices (class × fault derates at the graph's
// precision) on a classed one, so the FLOPs-uniform split does not park
// half the model on the slow class. A fleet with spot capacity also
// builds the hazard-biased start and takes whichever of the two the
// objective prices cheaper: the bias is a hint, not a commitment.
func (o *objective) seeds(g *model.Graph, pm *perfmodel.Model, user Initializer) Initializer {
	if user != nil {
		return user
	}
	if len(o.cl.Classes) == 0 {
		return config.Balanced
	}
	scales := make([]float64, o.cl.TotalDevices())
	hazards := make([]float64, len(scales))
	for d := range scales {
		scales[d] = o.cl.DeviceFLOPSScale(d, g.Precision)
		hazards[d] = o.cl.DeviceHazard(d)
	}
	return func(g *model.Graph, devices, stages, mbs int) (*config.Config, error) {
		devs, err := config.DeviceSplit(devices, stages)
		if err != nil {
			return nil, err
		}
		weights, _ := config.StageWeights(devs, scales, nil)
		plain, err := config.Weighted(g, devs, mbs, weights, nil)
		if err != nil || !o.spot {
			return plain, err
		}
		// The two builds fail on the same inputs (the replicated start is
		// only granted where it validates), so biased exists here.
		weights, replicate := config.StageWeights(devs, scales, hazards)
		biased, err := config.Weighted(g, devs, mbs, weights, replicate)
		if err != nil {
			return plain, nil
		}
		return o.cheaper(pm, biased, plain), nil
	}
}

// cheaper picks between the hazard-biased and the plain start by the
// objective's own price. An infeasible start never beats a feasible
// one; on a tie the biased one wins — it is the one the hazard evidence
// argues for. Both estimates are pure functions of the inputs, so the
// choice is deterministic; they go through pm.Estimate, outside any
// searcher, and are not counted as explored.
func (o *objective) cheaper(pm *perfmodel.Model, biased, plain *config.Config) *config.Config {
	price := func(cfg *config.Config) float64 {
		est := pm.Estimate(cfg)
		if est == nil || !est.Feasible || est.IterTime <= 0 {
			return math.Inf(1)
		}
		return o.score(cfg, est.IterTime)
	}
	if price(plain) < price(biased) {
		return plain
	}
	return biased
}
