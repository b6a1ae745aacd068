package main

// The fixed-iteration search targets: scale (three thousand-device
// settings) and trace (the paper's 16-GPU setting with the
// observability stack attached). Both are iteration-bounded, never
// deadline-bounded, so the explored count is a fingerprint of the
// search: the same on every run, at any size. Both searches' fingerprints
// are rows of core's determinism table; the time and allocation of the
// 16-GPU search are bench/'s search-deep workload.

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
)

// scaleRow is one cluster/graph point of the scale target.
type scaleRow struct {
	Devices     int     `json:"devices"`
	Ops         int     `json:"ops"`
	StageCounts []int   `json:"stage_counts"`
	Explored    int     `json:"explored"`
	BestScore   float64 `json:"best_iter_time_seconds"`
	AllocMB     float64 `json:"alloc_mb"`

	elapsed time.Duration // compared within the run only, never recorded
}

func (r scaleRow) String() string { return fmt.Sprintf("%d devices / %d ops", r.Devices, r.Ops) }

// scaleReport is the BENCH_scale.json schema.
type scaleReport struct {
	Setting string     `json:"setting"`
	Rows    []scaleRow `json:"rows"`
}

// scalePoints are the synthetic thousand-device settings: DGX-1-like
// nodes (8 V100s each) and uniform graphs sized so the largest point is
// a 4096-device, 10240-operator search.
var scalePoints = []struct{ nodes, ops int }{
	{128, 2560},
	{256, 5120},
	{512, 10240},
}

// scaleStageCounts pins the pipeline depths searched per point. The
// automatic set (§4.3) tops out at 32 stages anyway; pinning it keeps
// the determinism rows of these searches independent of future auto-set
// changes.
var scaleStageCounts = []int{8, 16, 32}

const (
	scaleIters = 2 // top-level iterations per stage count
	scaleReps  = 3 // searches per point; the row is the fastest

	// Linearity gate: the largest point has four times the devices and
	// operators of the smallest at an equal explored count, so a search
	// whose construction cost is linear in the graph pays about 4× there.
	// The gates leave room for cache effects and a noisy run, not for a
	// cost that grows with the square of the profiling database.
	scaleMaxAllocRatio   = 5.0
	scaleMaxElapsedRatio = 6.0
)

// scaleSearch runs one fixed-iteration search of g on cl and returns
// its row.
func scaleSearch(g *model.Graph, cl hardware.Cluster, seed int64) (scaleRow, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.Search(g, cl, core.Options{
		TimeBudget:    time.Hour,
		MaxIterations: scaleIters,
		Seed:          seed,
		StageCounts:   scaleStageCounts,
	})
	if err != nil {
		return scaleRow{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return scaleRow{
		Devices:     cl.TotalDevices(),
		Ops:         len(g.Ops),
		StageCounts: scaleStageCounts,
		elapsed:     elapsed,
		Explored:    res.Explored,
		BestScore:   res.Best.Score,
		AllocMB:     float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}, nil
}

// runScale searches each scale point and gates on the explored count
// being the same in every repetition and on the linearity of the
// largest point against the smallest.
func runScale(e *env) (any, []string, error) {
	out := &scaleReport{
		Setting: fmt.Sprintf("uniform synthetic graphs on DGX1V100 clusters, StageCounts=%v, MaxIterations=%d, Seed=%d, fixed-iteration, fastest of %d",
			scaleStageCounts, scaleIters, e.set.Seed, scaleReps),
	}
	var g gates
	for _, pt := range scalePoints {
		graph := model.Uniform(pt.ops, 1e9, 1e6, 1e5, 1024)
		cl := hardware.DGX1V100(pt.nodes)
		// The row is the fastest of scaleReps searches: the elapsed gate
		// is a ratio of two short wall times, and the minimum is the
		// figure a busy host disturbs least. Its allocation is the first
		// search's, whichever was fastest: the later ones clone into the
		// arenas the first left behind (core's stores) and allocate
		// less, and the gate is on what a point costs from cold.
		var row scaleRow
		var coldAllocMB float64
		for rep := 0; rep < scaleReps; rep++ {
			r, err := scaleSearch(graph, cl, e.set.Seed)
			if err != nil {
				return nil, nil, fmt.Errorf("%d devices / %d ops: %w", cl.TotalDevices(), pt.ops, err)
			}
			g.gate(rep == 0 || r.Explored == row.Explored, "%v: explored %d then %d in one process", r, row.Explored, r.Explored)
			if rep == 0 {
				coldAllocMB = r.AllocMB
			}
			if rep == 0 || r.elapsed < row.elapsed {
				row = r
			}
		}
		row.AllocMB = coldAllocMB
		out.Rows = append(out.Rows, row)
		fmt.Fprintf(e.w, "scale: %4d devices, %5d ops: %8.0fms, %d explored, best %.4fs, %.0f MB allocated\n",
			row.Devices, row.Ops, row.elapsed.Seconds()*1e3, row.Explored, row.BestScore, row.AllocMB)
	}
	small, large := out.Rows[0], out.Rows[len(out.Rows)-1]
	allocRatio, elapsedRatio := large.AllocMB/small.AllocMB, large.elapsed.Seconds()/small.elapsed.Seconds()
	fmt.Fprintf(e.w, "scale: %d → %d devices costs %.1f× time, %.1f× allocation\n",
		small.Devices, large.Devices, elapsedRatio, allocRatio)
	g.gate(allocRatio <= scaleMaxAllocRatio, "alloc_mb at %d devices is %.1f× that at %d, gate %.0f×",
		large.Devices, allocRatio, small.Devices, scaleMaxAllocRatio)
	g.gate(elapsedRatio <= scaleMaxElapsedRatio, "elapsed at %d devices is %.1f× that at %d, gate %.0f×",
		large.Devices, elapsedRatio, small.Devices, scaleMaxElapsedRatio)
	return out, g.failed, nil
}

// traceReport is the BENCH_trace.json schema: everything the trace run
// produced except the per-iteration JSONL stream itself. The
// convergence samples carry wall-clock times, so this file — unlike the
// JSONL trace — is not byte-identical across runs.
type traceReport struct {
	Setting     string                 `json:"setting"`
	Iterations  int                    `json:"iterations"`
	Explored    int                    `json:"explored"`
	BestScore   float64                `json:"best_iter_time_seconds"`
	Audited     int64                  `json:"estimates_audited"`
	Violations  []string               `json:"breakdown_violations,omitempty"`
	Convergence []obs.ConvergencePoint `json:"convergence"`
	Metrics     *obs.Registry          `json:"metrics"`
}

// runTrace runs the paper's 16-GPU setting with the JSONL tracer, the
// metrics registry and the breakdown auditor all attached, and gates on
// the auditor finding no resource-accounting violation.
func runTrace(e *env) (any, []string, error) {
	const iters = 4
	g, err := model.GPT3("2.6B")
	if err != nil {
		return nil, nil, err
	}
	jsonl := obs.NewJSONLTracer()
	auditor := obs.NewAuditor()
	conv := obs.NewConvergence()
	reg := obs.NewRegistry()
	res, err := core.Search(g, hardware.DGX1V100(2), core.Options{
		TimeBudget:    time.Hour,
		MaxIterations: iters,
		Seed:          e.set.Seed,
		Tracer:        obs.MultiTracer(jsonl, auditor, conv),
		Metrics:       reg,
	})
	if err != nil {
		return nil, nil, err
	}

	traceFile := filepath.Join(e.outDir, "BENCH_trace.jsonl")
	if err := writeFile(traceFile, func(w io.Writer) error { _, err := jsonl.WriteTo(w); return err }); err != nil {
		return nil, nil, err
	}

	out := &traceReport{
		Setting:     fmt.Sprintf("GPT-3 2.6B on 16xV100 (DGX1V100(2)), MaxIterations=%d, Seed=%d", iters, e.set.Seed),
		Iterations:  res.Iterations,
		Explored:    res.Explored,
		BestScore:   res.Best.Score,
		Audited:     auditor.Checked(),
		Violations:  auditor.Violations(),
		Convergence: conv.Curve(),
		Metrics:     reg,
	}
	fmt.Fprintf(e.w, "trace: %d iterations, %d explored, best %.4fs, %d estimates audited\n",
		res.Iterations, res.Explored, res.Best.Score, auditor.Checked())
	fmt.Fprintf(e.w, "trace: events → %s\n", traceFile)
	var failed []string
	if err := auditor.Err(); err != nil {
		failed = append(failed, err.Error())
	}
	return out, failed, nil
}
