// Package obs is the observability layer of the search stack: the
// Tracer interface with a structured search trace (JSONL events for
// every top-level iteration of Algorithm 1), the convergence tracer
// behind Exp#5–7 and a breakdown auditor that asserts the performance
// model's resource-accounting invariants on every traced estimate; and
// an atomic metrics registry (exportable as JSON and Prometheus text).
//
// The zero-overhead-when-disabled contract: nothing in this package
// runs unless a Tracer or *Registry is handed to core.Options. The
// search hot path guards every call with a nil check, so a search
// without observers pays one pointer comparison per event site and
// allocates nothing (DESIGN.md §5d).
//
// Profiling-grounded systems (CFP, PipeDream) treat measured
// breakdowns as first-class artifacts; this package gives the search
// the same: the trace shows *why* each reconfiguration was chosen
// (bottleneck stage, resource proportions, primitive, hops), the
// metrics show where the machinery spends its work, and the auditor
// keeps the time/memory buckets honest — a mis-attributed bucket
// silently steers Heuristic-2, and nothing else in the repo can see
// it.
package obs

import (
	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

// IterationEvent is one record of the JSONL search trace: one
// top-level iteration of Algorithm 1 inside one per-pipeline-depth
// search worker. Field order is the wire order (encoding/json emits
// struct fields in declaration order), so the schema below is also the
// byte layout the determinism golden test pins.
type IterationEvent struct {
	// StageCount identifies the worker (its pipeline depth).
	StageCount int `json:"stage_count"`
	// Iter is the 1-based iteration index within the worker.
	Iter int `json:"iter"`
	// Improved is true when the iteration found a better configuration.
	Improved bool `json:"improved"`

	// BottleneckStage is the stage whose bottleneck the accepted
	// reconfiguration alleviated — the last bottleneck attempted on
	// non-improving iterations, -1 when the estimate had no stages.
	BottleneckStage int `json:"bottleneck_stage"`
	// Comp/Comm/MemProportion are the bottleneck stage's shares of the
	// cluster-wide consumption of each resource — the inputs to
	// Heuristic-2's primitive ordering (§3.2, Table 1).
	CompProportion float64 `json:"comp_proportion"`
	CommProportion float64 `json:"comm_proportion"`
	MemProportion  float64 `json:"mem_proportion"`

	// Primitive is the Table-1 name of the accepted reconfiguration
	// ("" on non-improving iterations).
	Primitive string `json:"primitive,omitempty"`
	// Hops is the multi-hop depth of the accepted reconfiguration.
	Hops int `json:"hops"`
	// BottleneckTries counts the ranked bottlenecks attempted before
	// one yielded an improvement.
	BottleneckTries int `json:"bottleneck_tries"`
	// Backtracks counts abandoned multi-hop branches: ranked
	// candidates the iteration recursed into without finding an
	// improvement.
	Backtracks int `json:"backtracks"`
	// DedupHits counts candidates discarded because their semantic
	// hash was already visited (§4.3 dedup).
	DedupHits int `json:"dedup_hits"`
	// Estimated counts configurations newly estimated this iteration.
	Estimated int `json:"estimated"`

	// PoolRestart is true when the iteration found no improvement and
	// restarted from the best unexplored pool entry (Algorithm 1
	// line 13).
	PoolRestart bool `json:"pool_restart"`
	// PoolSize is the unexplored-pool size after the iteration.
	PoolSize int `json:"pool_size"`
	// BestScore is the worker's best score after the iteration
	// (estimated iteration time in seconds once feasible).
	BestScore float64 `json:"best_score"`
}

// Tracer receives structured search events. Implementations must be
// safe for concurrent use: the per-pipeline-depth workers call them in
// parallel. The search guards every call site with a nil check, so a
// nil Tracer costs nothing.
type Tracer interface {
	// OnIteration is called once per top-level search iteration.
	OnIteration(ev IterationEvent)
}

// EstimateTracer is a Tracer that also observes every estimate. The
// search estimates exactly what it would otherwise decide by a bound,
// so that an EstimateTracer sees every configuration it counts.
type EstimateTracer interface {
	Tracer
	// OnEstimate is called for every configuration newly estimated in
	// the search hot path. cfg and est are read-only and must not be
	// retained past the call: the search's candidate store decides when
	// their memory is reused (core.store). cfg may be nil for callers
	// that audit bare estimates.
	OnEstimate(cfg *config.Config, est *perfmodel.Estimate)
}

// multiTracer fans events out to several tracers.
type multiTracer []Tracer

func (m multiTracer) OnIteration(ev IterationEvent) {
	for _, t := range m {
		t.OnIteration(ev)
	}
}

// OnEstimate forwards to the tracers that observe estimates.
func (m multiTracer) OnEstimate(cfg *config.Config, est *perfmodel.Estimate) {
	for _, t := range m {
		if e, ok := t.(EstimateTracer); ok {
			e.OnEstimate(cfg, est)
		}
	}
}

// MultiTracer combines tracers into one; nil entries are dropped, and
// one tracer left is returned as it is, so the result observes
// estimates when that tracer does. Returns nil when every entry is nil,
// preserving the zero-overhead nil guard downstream.
func MultiTracer(ts ...Tracer) Tracer {
	var out multiTracer
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
