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
	"strings"
	"time"

	"aceso/internal/core"
	"aceso/internal/exps"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
)

// scaleRow is one cluster/graph point of the scale target.
type scaleRow struct {
	Devices, Ops, Explored int
	BestScore, AllocMB     float64
	elapsed                time.Duration
}

func (r scaleRow) String() string { return fmt.Sprintf("%d devices / %d ops", r.Devices, r.Ops) }

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
		Devices:   cl.TotalDevices(),
		Ops:       len(g.Ops),
		elapsed:   elapsed,
		Explored:  res.Explored,
		BestScore: res.Best.Score,
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}, nil
}

// runScale searches each scale point and gates on the explored count
// being the same in every repetition and on the linearity of the
// largest point against the smallest.
func runScale(e *env) ([]exps.Table, []string, error) {
	t := exps.Table{
		Title: fmt.Sprintf("scale: uniform synthetic graphs on DGX1V100 clusters, StageCounts=%v, MaxIterations=%d, seed %d, fastest of %d",
			scaleStageCounts, scaleIters, e.set.Seed, scaleReps),
		Cols: []exps.Col{{Head: "devices"}, {Head: "ops"}, {Head: "elapsed", Round: time.Millisecond}, {Head: "explored"},
			{Head: "best s", Fmt: "%.4f"}, {Head: "alloc MB", Fmt: "%.0f"}},
	}
	var rows []scaleRow
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
		rows = append(rows, row)
		t.Rows = append(t.Rows, []any{row.Devices, row.Ops, row.elapsed, row.Explored, row.BestScore, row.AllocMB})
	}
	small, large := rows[0], rows[len(rows)-1]
	allocRatio, elapsedRatio := large.AllocMB/small.AllocMB, large.elapsed.Seconds()/small.elapsed.Seconds()
	t.Notes = []string{fmt.Sprintf("%d → %d devices costs %.1f× time, %.1f× allocation",
		small.Devices, large.Devices, elapsedRatio, allocRatio)}
	g.gate(allocRatio <= scaleMaxAllocRatio, "alloc_mb at %d devices is %.1f× that at %d, gate %.0f×",
		large.Devices, allocRatio, small.Devices, scaleMaxAllocRatio)
	g.gate(elapsedRatio <= scaleMaxElapsedRatio, "elapsed at %d devices is %.1f× that at %d, gate %.0f×",
		large.Devices, elapsedRatio, small.Devices, scaleMaxElapsedRatio)
	return []exps.Table{t}, g.failed, nil
}

// runTrace runs the paper's 16-GPU setting with the JSONL tracer, the
// metrics registry and the breakdown auditor all attached, and gates on
// the auditor finding no resource-accounting violation.
func runTrace(e *env) ([]exps.Table, []string, error) {
	const iters = 4
	g, err := model.GPT3("2.6B")
	if err != nil {
		return nil, nil, err
	}
	jsonl := obs.NewJSONLTracer()
	auditor := obs.NewAuditor()
	curve := obs.NewConvergence()
	reg := obs.NewRegistry()
	res, err := core.Search(g, hardware.DGX1V100(2), core.Options{
		TimeBudget:    time.Hour,
		MaxIterations: iters,
		Seed:          e.set.Seed,
		Tracer:        obs.MultiTracer(jsonl, auditor, curve),
		Metrics:       reg,
	})
	if err != nil {
		return nil, nil, err
	}

	traceFile := filepath.Join(e.outDir, "BENCH_trace.jsonl")
	if err := writeFile(traceFile, func(w io.Writer) error { _, err := jsonl.WriteTo(w); return err }); err != nil {
		return nil, nil, err
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		return nil, nil, err
	}
	conv := exps.Table{Key: "convergence", Title: "\nbest feasible estimate over the search",
		Cols: []exps.Col{{Head: "elapsed", Round: time.Microsecond}, {Head: "best s", Fmt: "%.4f"}}}
	for _, p := range curve.Curve() {
		conv.Rows = append(conv.Rows, []any{p.Elapsed, p.IterTime})
	}
	tables := []exps.Table{{
		Title: fmt.Sprintf("trace: GPT-3 2.6B on 16xV100 (DGX1V100(2)), MaxIterations=%d, seed %d", iters, e.set.Seed),
		Cols: []exps.Col{{Head: "iterations"}, {Head: "explored"}, {Head: "best s", Fmt: "%.4f"},
			{Head: "estimates audited"}, {Head: "audit violations"}},
		Rows:  [][]any{{res.Iterations, res.Explored, res.Best.Score, auditor.Checked(), len(auditor.Violations())}},
		Notes: []string{"events → " + traceFile},
	}, conv, {Title: "\nmetrics", Notes: []string{strings.TrimSuffix(prom.String(), "\n")}}}
	var failed []string
	if err := auditor.Err(); err != nil {
		failed = append(failed, err.Error())
	}
	return tables, failed, nil
}
