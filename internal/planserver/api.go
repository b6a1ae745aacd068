// Package planserver implements the HTTP+JSON planning service behind
// cmd/acesod: wire types for plan requests, content-addressed caching
// via internal/plancache, admission control with bounded queuing and
// backpressure, SSE progress streaming, and graceful drain. The
// daemon turns the batch search into the on-demand planner ROADMAP
// item 1 calls for — cheap re-planning only pays off operationally if
// supervisors can query it in seconds (see DESIGN.md §5i).
package planserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/plancache"
)

// ModelSpec names a model-zoo builder plus its parameters. Exactly the
// fields the named family reads are consulted; the rest are ignored.
type ModelSpec struct {
	// Family selects the builder: gpt3 | t5 | wideresnet (or wresnet) |
	// llama | deep | tinygpt | mlp | mlpnorm | uniform.
	Family string `json:"family"`
	// Size is the named scale for gpt3/t5/wideresnet/llama
	// (e.g. "1.3B", "large").
	Size string `json:"size,omitempty"`

	// Builder parameters for tinygpt/mlp/mlpnorm/deep/uniform.
	Layers int `json:"layers,omitempty"`
	Dim    int `json:"dim,omitempty"`
	Hidden int `json:"hidden,omitempty"`
	Heads  int `json:"heads,omitempty"`
	Seq    int `json:"seq,omitempty"`
	Batch  int `json:"batch,omitempty"`

	// Uniform synthetic-graph parameters (per-op costs).
	Ops    int     `json:"ops,omitempty"`
	FLOPs  float64 `json:"flops,omitempty"`
	Params float64 `json:"params,omitempty"`
	Act    float64 `json:"act,omitempty"`
}

// Build constructs the model graph the spec describes.
func (m *ModelSpec) Build() (*model.Graph, error) {
	switch m.Family {
	case "deep":
		return model.DeepTransformer(m.Layers)
	case "tinygpt":
		return model.TinyGPT(m.Layers, m.Seq, m.Hidden, m.Heads, m.Batch)
	case "mlp":
		return model.MLP(m.Layers, m.Dim, m.Batch)
	case "mlpnorm":
		return model.MLPWithNorm(m.Layers, m.Dim, m.Batch)
	case "uniform":
		if m.Ops <= 0 || m.Batch <= 0 {
			return nil, fmt.Errorf("planserver: uniform model needs ops > 0 and batch > 0")
		}
		g := model.Uniform(m.Ops, m.FLOPs, m.Params, m.Act, m.Batch)
		if err := g.Validate(); err != nil {
			return nil, err
		}
		return g, nil
	case "":
		return nil, fmt.Errorf("planserver: model.family is required")
	default: // the sized families: gpt3 | t5 | wideresnet (or wresnet) | llama
		g, err := model.ByName(m.Family, m.Size)
		var unknown *model.UnknownFamilyError
		if errors.As(err, &unknown) {
			return nil, fmt.Errorf("planserver: unknown model family %q", m.Family)
		}
		return g, err
	}
}

// DerateSpec derates one device (rank in the healthy numbering).
// Scales of 0 mean "unchanged" on the wire and normalize to 1.
type DerateSpec struct {
	Device     int     `json:"device"`
	FLOPSScale float64 `json:"flops_scale,omitempty"`
	MemScale   float64 `json:"mem_scale,omitempty"`
}

// FaultsSpec is the wire form of hardware.FaultSpec.
type FaultsSpec struct {
	Dead    []int        `json:"dead,omitempty"`
	Derates []DerateSpec `json:"derates,omitempty"`

	IntraBWScale  float64 `json:"intra_bw_scale,omitempty"`
	InterBWScale  float64 `json:"inter_bw_scale,omitempty"`
	IntraLatScale float64 `json:"intra_lat_scale,omitempty"`
	InterLatScale float64 `json:"inter_lat_scale,omitempty"`
}

// DeviceClassSpec is the wire form of hardware.DeviceClass. Link
// fields of 0 inherit the cluster scalar.
type DeviceClassSpec struct {
	Name        string  `json:"name"`
	FP16FLOPS   float64 `json:"fp16_flops"`
	FP32FLOPS   float64 `json:"fp32_flops"`
	MaxUtil     float64 `json:"max_util"`
	MemoryBytes float64 `json:"memory_bytes"`
	IntraBW     float64 `json:"intra_bw,omitempty"`
	InterBW     float64 `json:"inter_bw,omitempty"`
	IntraLat    float64 `json:"intra_lat,omitempty"`
	InterLat    float64 `json:"inter_lat,omitempty"`
	// Capacity is "reserved" (the default) or "spot". Spot classes may
	// carry a preemption hazard (reclaims/hour/device) and an advance
	// notice window; a cluster with any hazardous spot class is planned
	// risk-aware (expected iteration time under the rework model) and
	// the plan carries a recommended checkpoint cadence.
	Capacity      string  `json:"capacity,omitempty"`
	HazardPerHour float64 `json:"hazard_per_hour,omitempty"`
	NoticeSeconds float64 `json:"notice_seconds,omitempty"`
}

// ClusterSpec describes the target cluster. Faults, when present,
// degrade it: the request is planned on the degraded cluster.
type ClusterSpec struct {
	// Preset names the parametric cluster: "dgx1v100" (the default) or
	// "a100v100" (a mixed fleet — A100 nodes first; node_classes may
	// refine the per-node split, otherwise the first half is A100).
	Preset string `json:"preset,omitempty"`
	Nodes  int    `json:"nodes"`
	// Restrict keeps only the first N devices (0 = all).
	Restrict int         `json:"restrict,omitempty"`
	Faults   *FaultsSpec `json:"faults,omitempty"`

	// Classes/NodeClasses describe a custom heterogeneous fleet on top
	// of the preset's scalar envelope: node_classes[i] indexes into
	// classes and must cover every node.
	Classes     []DeviceClassSpec `json:"classes,omitempty"`
	NodeClasses []int             `json:"node_classes,omitempty"`
}

// Build returns the healthy cluster plus the validated fault spec to
// apply to it with Cluster.Degrade (nil when the request targets
// healthy hardware) — the (healthy cluster, spec) pair core.Replan
// also takes.
func (c *ClusterSpec) Build() (hardware.Cluster, *hardware.FaultSpec, error) {
	if c.Nodes <= 0 {
		return hardware.Cluster{}, nil, fmt.Errorf("planserver: cluster.nodes must be > 0")
	}
	var cl hardware.Cluster
	switch c.Preset {
	case "", "dgx1v100":
		cl = hardware.DGX1V100(c.Nodes)
	case "a100v100":
		nodeClass := c.NodeClasses
		if len(nodeClass) == 0 {
			nodeClass = make([]int, c.Nodes)
			for i := (c.Nodes + 1) / 2; i < c.Nodes; i++ {
				nodeClass[i] = 1
			}
		} else if len(nodeClass) != c.Nodes {
			return hardware.Cluster{}, nil, fmt.Errorf(
				"planserver: cluster.node_classes has %d entries for %d nodes", len(nodeClass), c.Nodes)
		}
		cl = hardware.Mixed(8, nodeClass, hardware.A100Class(), hardware.V100Class())
	default:
		return hardware.Cluster{}, nil, fmt.Errorf("planserver: unknown cluster preset %q", c.Preset)
	}
	if len(c.Classes) > 0 {
		if c.Preset == "a100v100" {
			return hardware.Cluster{}, nil, fmt.Errorf(
				"planserver: cluster.classes conflicts with the a100v100 preset's built-in classes")
		}
		if len(c.NodeClasses) != c.Nodes {
			return hardware.Cluster{}, nil, fmt.Errorf(
				"planserver: cluster.node_classes has %d entries for %d nodes", len(c.NodeClasses), c.Nodes)
		}
		classes := make([]hardware.DeviceClass, len(c.Classes))
		for i, d := range c.Classes {
			classes[i] = hardware.DeviceClass{
				Name:        d.Name,
				FP16FLOPS:   d.FP16FLOPS,
				FP32FLOPS:   d.FP32FLOPS,
				MaxUtil:     d.MaxUtil,
				MemoryBytes: d.MemoryBytes,
				IntraBW:     d.IntraBW,
				InterBW:     d.InterBW,
				IntraLat:    d.IntraLat,
				InterLat:    d.InterLat,
			}
			switch d.Capacity {
			case "", "reserved":
				classes[i].Capacity = hardware.Reserved
			case "spot":
				classes[i].Capacity = hardware.Spot
				classes[i].HazardRate = d.HazardPerHour
				classes[i].NoticeSeconds = d.NoticeSeconds
			default:
				return hardware.Cluster{}, nil, fmt.Errorf(
					"planserver: cluster.classes[%d].capacity %q (want \"reserved\" or \"spot\")", i, d.Capacity)
			}
		}
		// Mixed recomputes the scalar envelope from the classes, which
		// keeps the envelope invariant Validate enforces.
		cl = hardware.Mixed(cl.DevicesPerNode, c.NodeClasses, classes...)
	}
	if c.Restrict > 0 {
		cl = cl.Restrict(c.Restrict)
	}
	if err := cl.Validate(); err != nil {
		return hardware.Cluster{}, nil, err
	}
	if c.Faults == nil {
		return cl, nil, nil
	}
	spec := hardware.FaultSpec{
		IntraBWScale:  c.Faults.IntraBWScale,
		InterBWScale:  c.Faults.InterBWScale,
		IntraLatScale: c.Faults.IntraLatScale,
		InterLatScale: c.Faults.InterLatScale,
	}
	for _, d := range c.Faults.Dead {
		spec.Devices = append(spec.Devices, hardware.DeviceFault{Device: d, Dead: true})
	}
	for _, d := range c.Faults.Derates {
		f := hardware.DeviceFault{Device: d.Device, FLOPSScale: d.FLOPSScale, MemScale: d.MemScale}
		if f.FLOPSScale == 0 {
			f.FLOPSScale = 1
		}
		if f.MemScale == 0 {
			f.MemScale = 1
		}
		spec.Devices = append(spec.Devices, f)
	}
	if err := spec.Validate(cl); err != nil {
		return hardware.Cluster{}, nil, err
	}
	return cl, &spec, nil
}

// SearchOptions is the wire form of core.Options. Zero values take the
// server's defaults; the normalized (defaults-applied) form is what
// the options hash covers, so spelling a default explicitly hits the
// same cache entry as omitting it.
type SearchOptions struct {
	BudgetMS           int   `json:"budget_ms,omitempty"`
	MaxIterations      int   `json:"max_iterations,omitempty"`
	MaxHops            int   `json:"max_hops,omitempty"`
	BranchFactor       int   `json:"branch_factor,omitempty"`
	TopK               int   `json:"top_k,omitempty"`
	StageCounts        []int `json:"stage_counts,omitempty"`
	InitMicroBatch     int   `json:"init_micro_batch,omitempty"`
	Seed               int64 `json:"seed,omitempty"`
	DisableHeuristic2  bool  `json:"disable_heuristic2,omitempty"`
	DisableFineTune    bool  `json:"disable_finetune,omitempty"`
	ExtendedPrimitives bool  `json:"extended_primitives,omitempty"`
}

// normalize applies the server's budget policy: default when unset,
// clamped to the server maximum.
func (o SearchOptions) normalize(defaultBudget, maxBudget time.Duration) SearchOptions {
	b := time.Duration(o.BudgetMS) * time.Millisecond
	if b <= 0 {
		b = defaultBudget
	}
	if maxBudget > 0 && b > maxBudget {
		b = maxBudget
	}
	o.BudgetMS = int(b / time.Millisecond)
	return o
}

// core converts the normalized options into core.Options.
func (o SearchOptions) core() core.Options {
	return core.Options{
		TimeBudget:         time.Duration(o.BudgetMS) * time.Millisecond,
		MaxIterations:      o.MaxIterations,
		MaxHops:            o.MaxHops,
		BranchFactor:       o.BranchFactor,
		TopK:               o.TopK,
		StageCounts:        o.StageCounts,
		InitMicroBatch:     o.InitMicroBatch,
		Seed:               o.Seed,
		DisableHeuristic2:  o.DisableHeuristic2,
		DisableFineTune:    o.DisableFineTune,
		ExtendedPrimitives: o.ExtendedPrimitives,
	}
}

// hash folds the normalized options into the cache key's options
// component. Field order is the schema.
func (o SearchOptions) hash() uint64 {
	h := plancache.NewHasher()
	h.Int(int64(o.BudgetMS))
	h.Int(int64(o.MaxIterations))
	h.Int(int64(o.MaxHops))
	h.Int(int64(o.BranchFactor))
	h.Int(int64(o.TopK))
	h.Int(int64(len(o.StageCounts)))
	for _, p := range o.StageCounts {
		h.Int(int64(p))
	}
	h.Int(int64(o.InitMicroBatch))
	h.Int(o.Seed)
	h.Bool(o.DisableHeuristic2)
	h.Bool(o.DisableFineTune)
	h.Bool(o.ExtendedPrimitives)
	return h.Sum()
}

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	Model   ModelSpec     `json:"model"`
	Cluster ClusterSpec   `json:"cluster"`
	Options SearchOptions `json:"options"`
	// DeadlineMS bounds the whole request wall time (0 = budget + slack).
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Stream switches the response to SSE progress events.
	Stream bool `json:"stream,omitempty"`
	// NoCache skips the cache lookup (the store still happens), for
	// callers that want a fresh search — and for cache-correctness
	// audits comparing fresh bytes against a hit.
	NoCache bool `json:"no_cache,omitempty"`
}

// Wire limits. A body over maxBodyBytes is refused with a 413 before it
// is decoded; a request whose shape exceeds a cap is refused with a 400
// before anything is built, so no request makes prepare allocate more
// than a graph of maxLayers transformer layers or maxOps operators on a
// fleet of maxNodes nodes. The largest shape a test, a paper target or
// the benchmark sends is 10 240 uniform operators on 512 nodes.
const (
	maxBodyBytes = 1 << 20
	maxLayers    = 1 << 12
	maxOps       = 1 << 15
	maxWidth     = 1 << 16 // seq, dim, hidden, heads, batch
	maxNodes     = 1 << 10
	maxDevices   = 8 * maxNodes // restrict, and each fault list
	maxClasses   = 64
)

// checkShape applies the wire's shape caps.
func (pr *PlanRequest) checkShape() error {
	m, c := &pr.Model, &pr.Cluster
	var dead, derates int
	if c.Faults != nil {
		dead, derates = len(c.Faults.Dead), len(c.Faults.Derates)
	}
	for _, l := range [...]struct {
		field  string
		n, max int
	}{
		{"model.layers", m.Layers, maxLayers},
		{"model.ops", m.Ops, maxOps},
		{"model.seq", m.Seq, maxWidth},
		{"model.dim", m.Dim, maxWidth},
		{"model.hidden", m.Hidden, maxWidth},
		{"model.heads", m.Heads, maxWidth},
		{"model.batch", m.Batch, maxWidth},
		{"cluster.nodes", c.Nodes, maxNodes},
		{"cluster.restrict", c.Restrict, maxDevices},
		{"cluster.faults.dead", dead, maxDevices},
		{"cluster.faults.derates", derates, maxDevices},
		{"cluster.classes", len(c.Classes), maxClasses},
		{"cluster.node_classes", len(c.NodeClasses), maxNodes},
	} {
		if l.n > l.max {
			return fmt.Errorf("planserver: %s = %d exceeds the limit of %d", l.field, l.n, l.max)
		}
	}
	return nil
}

// StagePlan is the per-stage slice of the estimate breakdown.
type StagePlan struct {
	Start   int `json:"start"`
	End     int `json:"end"`
	Devices int `json:"devices"`

	StageTimeSeconds float64 `json:"stage_time_seconds"`
	FwdSeconds       float64 `json:"fwd_seconds"`
	BwdSeconds       float64 `json:"bwd_seconds"`
	TPCommSeconds    float64 `json:"tp_comm_seconds"`
	P2PSeconds       float64 `json:"p2p_seconds"`
	RecompSeconds    float64 `json:"recomp_seconds"`
	ReshardSeconds   float64 `json:"reshard_seconds"`
	DPSyncSeconds    float64 `json:"dp_sync_seconds"`
	PeakMemBytes     float64 `json:"peak_mem_bytes"`
	CapMemBytes      float64 `json:"cap_mem_bytes"`
}

// Plan is the deterministic payload of a planning result — everything
// in it is a pure function of (graph, cluster, options) for a
// deterministic search, so it can be cached and replayed
// bit-identically. Wall-clock timings live in the PlanResponse
// envelope instead.
type Plan struct {
	Config          *config.Config `json:"config"`
	Score           float64        `json:"score"`
	IterTimeSeconds float64        `json:"iter_time_seconds"`
	PeakMemBytes    float64        `json:"peak_mem_bytes"`
	Feasible        bool           `json:"feasible"`
	Microbatches    int            `json:"microbatches"`
	Devices         int            `json:"devices"`
	Stages          []StagePlan    `json:"stages"`
	Explored        int            `json:"explored"`
	Iterations      int            `json:"iterations"`
	Partial         bool           `json:"partial"`
	// RecommendedCadence is the Young–Daly checkpoint interval (in
	// iterations) for the plan's expected iteration time under the
	// cluster's preemption hazard; 0 on hazard-free clusters.
	RecommendedCadence int `json:"recommended_cadence,omitempty"`
}

// buildPlan projects a search result onto the wire Plan.
func buildPlan(res *core.Result) *Plan {
	best := res.Best
	p := &Plan{
		Config:             best.Config,
		Score:              best.Score,
		Explored:           res.Explored,
		Iterations:         res.Iterations,
		Partial:            res.Partial,
		RecommendedCadence: res.RecommendedCadence,
	}
	if est := best.Estimate; est != nil {
		p.IterTimeSeconds = est.IterTime
		p.PeakMemBytes = est.PeakMem
		p.Feasible = est.Feasible
		p.Microbatches = est.Microbatches
		p.Devices = est.Devices
		for i, sm := range est.Stages {
			sp := StagePlan{
				StageTimeSeconds: sm.StageTime,
				FwdSeconds:       sm.FwdTime,
				BwdSeconds:       sm.BwdTime,
				TPCommSeconds:    sm.TPComm,
				P2PSeconds:       sm.P2P,
				RecompSeconds:    sm.Recomp,
				ReshardSeconds:   sm.ReshardComm,
				DPSyncSeconds:    sm.DPSync,
				PeakMemBytes:     sm.PeakMem,
				CapMemBytes:      sm.CapMem,
			}
			if best.Config != nil && i < len(best.Config.Stages) {
				st := &best.Config.Stages[i]
				sp.Start, sp.End, sp.Devices = st.Start, st.End, st.Devices
			}
			p.Stages = append(p.Stages, sp)
		}
	}
	return p
}

// PlanResponse is the envelope around a Plan: cache disposition, the
// content key, and this request's wall time.
type PlanResponse struct {
	// Cache is "hit" (exact cached plan), "warm" (miss warm-started
	// from a near-miss donor), or "miss" (cold search).
	Cache string `json:"cache"`
	// Key is the content hash triple, hex-encoded as graph-cluster-options.
	Key       string          `json:"key"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Plan      json.RawMessage `json:"plan"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 backpressure responses.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
}
