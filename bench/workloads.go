package main

// The four workloads. Each is set up from scratch (inputs built, server
// listening, hot set planned, warm-up ops done, runtime.GC called) and
// then asked for ops one at a time, closed-loop; the harness in main.go
// decides how many and whether spans are recorded.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	"aceso/internal/planserver"
)

// env is what a workload is set up from.
type env struct {
	seed    int64
	quick   bool
	seconds float64 // length of the phase the instance must have inputs for
	out     string  // where a traced run writes its span file
}

// instance is one set-up workload.
type instance interface {
	// op runs the next op and returns when it started, when it ended and
	// why it failed ("" if it did not). With a tracer the op records its
	// spans.
	op(tr *tracer) (start, end time.Time, fail string)
	// finish runs the end-of-run checks and returns the predicted
	// iteration time of every pinned input: those planned in set-up,
	// which are the same on every run and seed.
	finish(tr *tracer) (iterTimes []float64, err error)
	// ledger fills in the per-layer metrics the workload is mapped to
	// (README.md): from the spans of its traced ops, and from unit-cost
	// probes on its own inputs. The others stay 0.
	ledger(l *ledger) error
	close() error
}

type workload struct {
	name   string
	why    string
	procs  int // GOMAXPROCS of the workload's process, at most the cores there are
	warmup int // ops run inside set-up
	// setup builds the instance; a tracer records the requests set-up
	// itself sends.
	setup func(w *workload, e env, tr *tracer) (instance, error)
}

var workloads = []workload{
	{
		name: "search-deep", procs: 2, warmup: 5,
		why:   "GPT-3 2.6B on 16 V100, 24 701 configs: time is multi-hop iteration, config clone/hash and perfmodel.Batch",
		setup: func(_ *workload, e env, _ *tracer) (instance, error) { return newSearch(deepRequest(e.quick)) },
	},
	{
		name: "search-scale", procs: 2, warmup: 2,
		why:   "10 240 ops on 4 096 devices, 589 configs: time is per-search construction on cold caches, not exploration",
		setup: func(_ *workload, e env, _ *tracer) (instance, error) { return newSearch(scaleRequest(e.quick)) },
	},
	{
		name: "serve-hit", procs: 1, warmup: 5000,
		why:   "loopback POST /v1/plan over a hot set planned in set-up, one client on one thread: plancache reads, no search runs",
		setup: func(w *workload, e env, tr *tracer) (instance, error) { return newServe(w, e, true, tr) },
	},
	{
		name: "serve-miss", procs: 2, warmup: 50,
		why:   "never-repeating faulted, mixed, spot and reseeded requests: warm and cold searches, Put with eviction",
		setup: func(w *workload, e env, tr *tracer) (instance, error) { return newServe(w, e, false, tr) },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// built is a request turned into what the planner's layers take.
type built struct {
	req     planserver.PlanRequest
	g       *model.Graph
	healthy hardware.Cluster
	target  hardware.Cluster // healthy degraded by faults, or healthy
	faults  *hardware.FaultSpec
	opts    core.Options
}

// build does what planserver's prepare does, from outside.
func build(req planserver.PlanRequest) (*built, error) {
	g, err := req.Model.Build()
	if err != nil {
		return nil, err
	}
	healthy, faults, err := req.Cluster.Build()
	if err != nil {
		return nil, err
	}
	target := healthy
	if faults != nil {
		if target, err = healthy.Degrade(*faults); err != nil {
			return nil, err
		}
	}
	o := req.Options
	return &built{req: req, g: g, healthy: healthy, target: target, faults: faults, opts: core.Options{
		TimeBudget:    time.Duration(o.BudgetMS) * time.Millisecond,
		MaxIterations: o.MaxIterations,
		StageCounts:   o.StageCounts,
		Seed:          o.Seed,
	}}, nil
}

// wantPartial reports whether a complete search of b is marked Partial
// all the same: core sets the flag when any pipeline depth has no
// starting configuration, and 15 devices (one dead of 16) cannot be
// split into powers of two for several depths. There the flag is the
// planner's normal answer; everywhere else it means a search was cut
// short. core's automatic set of depths always holds depth 1, which
// cannot be split exactly when the device count is no power of two, so
// depth 1 stands for the set.
func (b *built) wantPartial() bool {
	depths := b.opts.StageCounts
	if len(depths) == 0 {
		depths = []int{1}
	}
	for _, p := range depths {
		if _, err := config.DeviceSplit(b.target.TotalDevices(), p); err != nil {
			return true
		}
	}
	return false
}

// checkResult is the per-op correctness check of a search result.
func checkResult(b *built, res *core.Result, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case res.Partial != b.wantPartial():
		return fmt.Sprintf("partial=%v, want %v", res.Partial, b.wantPartial())
	case res.Best.Config == nil || res.Best.Estimate == nil:
		return "no plan"
	}
	if err := res.Best.Config.Validate(b.g, b.target.TotalDevices()); err != nil {
		return "invalid config: " + err.Error()
	}
	if err := perfmodel.ValidateEstimate(res.Best.Estimate); err != nil {
		return "invalid estimate: " + err.Error()
	}
	return ""
}

// ---------------------------------------------------------------------------
// search-deep, search-scale
// ---------------------------------------------------------------------------

// searchInst runs one pinned search over and over, as a library user's
// cold call: every op builds its own perfmodel and profiler caches.
type searchInst struct {
	b        *built
	n        int
	hash     uint64 // first op's Config.Hash and Explored: every op must match
	explored int
	iterTime float64

	// what the last traced op left behind, for the ledger
	reg *obs.Registry
	pm  *perfmodel.Model
	res *core.Result
}

func newSearch(req planserver.PlanRequest) (*searchInst, error) {
	b, err := build(req)
	if err != nil {
		return nil, err
	}
	if len(b.target.Classes) > 0 {
		// A traced op hands core the initializer core would pick itself,
		// inside a span; on a classed cluster core picks another one.
		return nil, errors.New("search workloads are defined on clusters without device classes")
	}
	return &searchInst{b: b}, nil
}

// searchSpans records, through the hooks core.Options offers any
// caller, the spans of one traced search: a task per pipeline depth, and
// inside it the initializer, the first estimate and every top-level
// iteration. A task runs on one goroutine and touches only its own slot.
type searchSpans struct {
	tr     *tracer
	parent int // the core.SearchContext span
	op     int
	tasks  [64]struct {
		span, open int // the task's span and its open child
		estimated  bool
	}
}

// initial is core's default initializer on a cluster without classes,
// config.Balanced, inside a span. core calls it first thing in a task.
func (s *searchSpans) initial(g *model.Graph, devices, stages, mbs int) (*config.Config, error) {
	if stages >= len(s.tasks) {
		return config.Balanced(g, devices, stages, mbs)
	}
	t := &s.tasks[stages]
	t.span = s.tr.begin(taskSpan+strconv.Itoa(stages), s.parent, s.op)
	sp := s.tr.begin("config.Balanced", t.span, s.op)
	c, err := config.Balanced(g, devices, stages, mbs)
	s.tr.end(sp, 1)
	s.tr.end(t.span, 0)
	if err == nil {
		t.open = s.tr.begin("perfmodel.Estimate/first", t.span, s.op)
	}
	return c, err
}

// OnEstimate follows every newly estimated configuration; a task's
// first is its starting configuration, estimated on cold caches.
func (s *searchSpans) OnEstimate(cfg *config.Config, _ *perfmodel.Estimate) {
	if cfg == nil || cfg.NumStages() >= len(s.tasks) {
		return
	}
	t := &s.tasks[cfg.NumStages()]
	if t.estimated || t.open == 0 {
		return
	}
	t.estimated = true
	s.tr.end(t.open, 1)
	s.tr.end(t.span, 0)
	t.open = s.tr.begin("core.iteration", t.span, s.op)
}

// OnIteration ends a top-level iteration. The task's span is closed
// again at each one, so it ends with its last iteration; the span opened
// for an iteration that never comes is dropped.
func (s *searchSpans) OnIteration(ev obs.IterationEvent) {
	if ev.StageCount >= len(s.tasks) {
		return
	}
	t := &s.tasks[ev.StageCount]
	if t.open == 0 {
		return
	}
	s.tr.end(t.open, ev.Estimated)
	s.tr.end(t.span, ev.Iter)
	t.open = s.tr.begin("core.iteration", t.span, s.op)
}

func (s *searchInst) op(tr *tracer) (time.Time, time.Time, string) {
	opts := s.b.opts
	root := tr.begin("bench.Search", 0, s.n)
	start := time.Now()
	var sp int
	if tr != nil {
		// What core does itself when Model and Initializer are nil, done
		// here so that it can be seen.
		sp = tr.begin("perfmodel.New", root, s.n)
		s.pm = perfmodel.New(s.b.g, s.b.target, opts.Seed)
		tr.end(sp, 1)
		sp = tr.begin("core.SearchContext", root, s.n)
		hooks := &searchSpans{tr: tr, parent: sp, op: s.n}
		s.reg = obs.NewRegistry()
		opts.Model, opts.Metrics, opts.Tracer, opts.Initializer = s.pm, s.reg, hooks, hooks.initial
	}
	res, err := core.SearchContext(context.Background(), s.b.g, s.b.target, opts)
	end := time.Now()
	tr.end(sp, 1)
	tr.end(root, 1)
	s.n++
	fail := checkResult(s.b, res, err)
	if fail != "" {
		return start, end, fail
	}
	h := res.Best.Config.Hash()
	if s.n == 1 {
		s.hash, s.explored, s.iterTime = h, res.Explored, res.Best.Estimate.IterTime
	} else if h != s.hash || res.Explored != s.explored {
		fail = fmt.Sprintf("plan %016x/%d explored differs from first op's %016x/%d", h, res.Explored, s.hash, s.explored)
	}
	if tr != nil {
		s.res = res
	}
	return start, end, fail
}

func (s *searchInst) finish(*tracer) ([]float64, error) {
	if s.n == 0 {
		return nil, errors.New("no search ran")
	}
	return []float64{s.iterTime}, nil
}

func (s *searchInst) close() error { return nil }

// ---------------------------------------------------------------------------
// serve-hit, serve-miss
// ---------------------------------------------------------------------------

// Headers by which a traced client hands its span to the handler span.
const (
	spanHeader = "X-Bench-Span"
	opHeader   = "X-Bench-Op"
)

// server is an in-process planserver behind real loopback HTTP.
type server struct {
	srv    *planserver.Server
	hs     *http.Server
	served chan error
	base   string
	tr     atomic.Pointer[tracer] // set while traced requests are sent
}

// tracedWriter puts the handler's writes to the connection in spans:
// what is left of the handler's span is the planner's own work.
type tracedWriter struct {
	http.ResponseWriter
	tr         *tracer
	parent, op int
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	sp := w.tr.begin("http.Write", w.parent, w.op)
	n, err := w.ResponseWriter.Write(p)
	w.tr.end(sp, 1)
	return n, err
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    planserver.New(planserver.Config{Concurrency: 2}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	inner := s.srv.Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		if tr == nil || parent == 0 {
			inner.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		sp := tr.begin("planserver.Handler", parent, op)
		inner.ServeHTTP(&tracedWriter{w, tr, sp, op}, r)
		tr.end(sp, 1)
	})}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve.
func (s *server) stop() error {
	err := s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// client is the one closed-loop keep-alive connection.
type client struct {
	http *http.Client
	buf  bytes.Buffer // response buffer, reused
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

// cacheKind returns the "cache" field of a plan response body, which
// the server writes first.
func cacheKind(body []byte) string {
	rest, ok := bytes.CutPrefix(body, []byte(`{"cache":"`))
	if !ok {
		return ""
	}
	kind, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(kind)
}

// planBytes returns the "plan" value of a plan response body, which the
// server writes last; it aliases body.
func planBytes(body []byte) []byte {
	_, plan, ok := bytes.Cut(body, []byte(`,"plan":`))
	if !ok {
		return nil
	}
	return bytes.TrimSuffix(bytes.TrimSpace(plan), []byte("}"))
}

// checkPlan decodes plan bytes and validates them against the request.
func checkPlan(b *built, raw []byte) (*planserver.Plan, error) {
	var p planserver.Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("decode plan: %w", err)
	}
	switch {
	case p.Partial != b.wantPartial():
		return nil, fmt.Errorf("partial=%v, want %v", p.Partial, b.wantPartial())
	case p.Config == nil:
		return nil, errors.New("plan without config")
	case !(p.IterTimeSeconds > 0) || math.IsInf(p.IterTimeSeconds, 0):
		return nil, fmt.Errorf("iter_time_seconds %v", p.IterTimeSeconds)
	}
	if err := p.Config.Validate(b.g, b.target.TotalDevices()); err != nil {
		return nil, fmt.Errorf("invalid config: %w", err)
	}
	return &p, nil
}

// answered is request i of the miss list and the plan it got.
type answered struct {
	i    int
	plan []byte
}

// serveInst drives one server with pre-marshalled bodies. In hit mode
// the bodies are keys planned at start and then visited in order,
// round-robin; in miss mode each body is sent once.
type serveInst struct {
	*server
	reqs   []planserver.PlanRequest
	bodies [][]byte
	order  []int // hit mode: the visiting order over bodies; nil in miss mode
	warm   int   // miss mode: bodies at the start that are the same for every seed
	client *client
	next   int

	// hit mode: the plan bytes planning each key returned.
	want [][]byte
	// predicted iteration times of the pinned inputs: the hot keys, or
	// the warm chain of the miss list
	iterTimes []float64

	// miss mode: the most recent answered requests with their plan
	// bytes, for the end-of-run re-request and the probes, and how many
	// configurations and iterations the plans of the measured requests
	// say their searches took. A plan is checked as it arrives, after the
	// op's end time is taken: kept for later, a run's plans would be 20 MB
	// of the benchmark's own in the resident set, and the collector's
	// target twice that.
	recent               [64]answered
	explored, iterations []float64
	// body sizes of the traced responses
	sizes []float64

	// the generator's own tallies of 200s, by the response's cache field
	tally struct{ ok, hit, warm, miss int64 }
}

func newServe(w *workload, e env, hit bool, tr *tracer) (*serveInst, error) {
	if hit {
		keys := hotKeys(e.quick)
		return startServe(keys, hotOrder(e.seed, len(keys)), tr)
	}
	// Ten times the reference box's rate, so the list never runs out.
	s, err := startServe(missList(e.seed, w.warmup, w.warmup+int(e.seconds*500)), nil, tr)
	if err == nil {
		s.warm = w.warmup
	}
	return s, err
}

// startServe starts a server and its client. With an order it plans
// every key (recording spans in tr, if any): each must miss once, and
// what it returns is what every later hit must return.
func startServe(reqs []planserver.PlanRequest, order []int, tr *tracer) (*serveInst, error) {
	s := &serveInst{reqs: reqs, order: order, client: newClient()}
	var err error
	if s.bodies, err = marshalAll(reqs); err != nil {
		return nil, err
	}
	if s.server, err = startServer(); err != nil {
		return nil, err
	}
	s.tr.Store(tr)
	planned := false
	defer func() {
		s.tr.Store(nil)
		if !planned {
			_ = s.close() // the planning error is the one to report
		}
	}()
	if order == nil {
		planned = true
		return s, nil
	}
	for k := range s.bodies {
		// Planning requests are ops -1, -2, …, apart from every later op.
		_, _, kind, fail := s.send(k, -1-k, tr)
		if fail == "" && kind == "hit" {
			fail = "answered as a hit before it was planned"
		}
		var p *planserver.Plan
		if fail == "" {
			b, err := build(reqs[k])
			if err != nil {
				return nil, err
			}
			s.want = append(s.want, bytes.Clone(planBytes(s.client.buf.Bytes())))
			if p, err = checkPlan(b, s.want[k]); err != nil {
				fail = err.Error()
			}
		}
		if fail != "" {
			return nil, fmt.Errorf("plan key %d (%s %s): %s", k, reqs[k].Model.Family, reqs[k].Model.Size, fail)
		}
		s.iterTimes = append(s.iterTimes, p.IterTimeSeconds)
	}
	planned = true
	return s, nil
}

// send posts body k as op i, reads the whole response into the client's
// buffer and tallies it. The times are from before the
// write until the body is fully read.
func (s *serveInst) send(k, i int, tr *tracer) (start, end time.Time, kind, fail string) {
	cl := s.client
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/plan", bytes.NewReader(s.bodies[k]))
	if err != nil {
		now := time.Now()
		return now, now, "", "error: " + err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	sp := tr.begin("bench.RoundTrip", 0, i)
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
		req.Header.Set(opHeader, strconv.Itoa(i))
	}
	start = time.Now()
	resp, err := cl.http.Do(req)
	if err == nil {
		cl.buf.Reset()
		_, err = cl.buf.ReadFrom(resp.Body)
		err = errors.Join(err, resp.Body.Close())
	}
	end = time.Now()
	tr.end(sp, 1)
	switch {
	case err != nil:
		return start, end, "", "error: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		return start, end, "", fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(cl.buf.Bytes()))
	}
	if tr != nil {
		s.sizes = append(s.sizes, float64(cl.buf.Len()))
	}
	kind = cacheKind(cl.buf.Bytes())
	s.tally.ok++
	switch kind {
	case "hit":
		s.tally.hit++
	case "warm":
		s.tally.warm++
	default:
		s.tally.miss++
	}
	return start, end, kind, ""
}

func (s *serveInst) op(tr *tracer) (time.Time, time.Time, string) {
	i := s.next
	s.next++
	if s.order != nil {
		k := s.order[i%len(s.order)]
		start, end, kind, fail := s.send(k, i, tr)
		switch {
		case fail != "":
		case kind != "hit":
			fail = fmt.Sprintf("cache %q, want hit", kind)
		case !bytes.Equal(planBytes(s.client.buf.Bytes()), s.want[k]):
			fail = "plan bytes differ from the response that planned this key"
		}
		return start, end, fail
	}
	if i >= len(s.bodies) {
		now := time.Now()
		return now, now, "miss list exhausted"
	}
	start, end, kind, fail := s.send(i, i, tr)
	switch {
	case fail != "":
	case kind == "hit":
		fail = "never-repeating request answered as a hit"
	default:
		fail = s.checkMiss(i, planBytes(s.client.buf.Bytes()))
	}
	return start, end, fail
}

// checkMiss holds the plan request i got against the request and keeps
// what the end of the run needs of it.
func (s *serveInst) checkMiss(i int, raw []byte) string {
	b, err := build(s.reqs[i])
	if err != nil {
		return "error: " + err.Error()
	}
	p, err := checkPlan(b, raw)
	if err != nil {
		return fmt.Sprintf("%s: %v", missKind(i), err)
	}
	if i < s.warm {
		s.iterTimes = append(s.iterTimes, p.IterTimeSeconds)
	} else {
		s.explored = append(s.explored, float64(p.Explored))
		s.iterations = append(s.iterations, float64(p.Iterations))
	}
	s.recent[i%len(s.recent)] = answered{i, bytes.Clone(raw)}
	return ""
}

// latest returns the n most recent answered requests, oldest first.
func (s *serveInst) latest(n int) []answered {
	var out []answered
	for _, a := range s.recent {
		if a.plan != nil {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].i < out[b].i })
	return out[max(0, len(out)-n):]
}

func (s *serveInst) finish(tr *tracer) ([]float64, error) {
	if s.order != nil {
		return s.iterTimes, nil
	}
	// The most recent keys must still be cached, byte for byte. A traced
	// run reads its hit times off these requests, ops n and up.
	n := s.next
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	for _, a := range s.latest(16) {
		_, _, kind, fail := s.send(a.i, n+a.i, tr)
		switch {
		case fail != "":
			return nil, fmt.Errorf("re-request of miss %d: %s", a.i, fail)
		case kind != "hit":
			return nil, fmt.Errorf("re-request of miss %d: cache %q, want hit", a.i, kind)
		case !bytes.Equal(planBytes(s.client.buf.Bytes()), a.plan):
			return nil, fmt.Errorf("re-request of miss %d: cached plan bytes differ", a.i)
		}
	}
	return s.iterTimes, nil
}

func (s *serveInst) close() error {
	s.client.http.CloseIdleConnections()
	return s.stop()
}
