package planserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/plancache"
)

// Config parameterizes a Server. Zero values take defaults.
type Config struct {
	// Concurrency caps searches running simultaneously, each holding
	// its candidate stores and estimate arenas while it runs; stores
	// pass from one search to the next (DESIGN §5b, Candidate
	// lifetime). Default: GOMAXPROCS.
	Concurrency int
	// Queue bounds requests waiting for a search slot; the queue full
	// → 429 + Retry-After. Default 64.
	Queue int
	// CacheSize bounds the plan cache entries. Default 256.
	CacheSize int
	// DefaultBudget applies when a request omits budget_ms. Default 2s.
	DefaultBudget time.Duration
	// MaxBudget clamps requested budgets (0 = no clamp). Default 30s.
	MaxBudget time.Duration
	// TraceCap bounds the rolling iteration-trace window served at
	// /v1/trace. Default 4096 events.
	TraceCap int
	// Registry receives service + search metrics; one is created when
	// nil.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 4096
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the planning service. Create with New, mount Handler on an
// http.Server, call Drain before shutdown.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	reg   *obs.Registry
	trace *obs.JSONLTracer // rolling bounded window for /v1/trace

	// Resolved once: the hit path looks nothing up.
	requestSeconds                          *obs.Histogram
	requestsOK, hitsExact, hitsWarm, misses *obs.Counter

	sem    chan struct{} // search slots
	queued atomic.Int64  // requests waiting for a slot

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	mux *http.ServeMux
}

// New constructs a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: plancache.New(cfg.CacheSize),
		reg:   cfg.Registry,
		trace: obs.NewBoundedJSONLTracer(cfg.TraceCap),
		sem:   make(chan struct{}, cfg.Concurrency),
		mux:   http.NewServeMux(),
	}
	s.requestSeconds = s.reg.Histogram(obs.ServeRequestSeconds, obs.SecondsBuckets...)
	s.requestsOK = s.reg.Counter(requestsSeries(http.StatusOK))
	s.hitsExact = s.reg.Counter(obs.Labeled(obs.ServeCacheHitsTotal, "kind", "exact"))
	s.hitsWarm = s.reg.Counter(obs.Labeled(obs.ServeCacheHitsTotal, "kind", "warm"))
	s.misses = s.reg.Counter(obs.ServeCacheMissesTotal)
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/trace", s.handleTrace)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the server writes to.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache exposes the plan cache (stats endpoints, tests).
func (s *Server) Cache() *plancache.Cache { return s.cache }

// Drain stops admitting new requests and blocks until every in-flight
// request (including queued-but-admitted ones) has completed. Safe to
// call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginRequest admits a request into the in-flight set, or reports
// false when the server is draining. The WaitGroup Add happens under
// the same lock that Drain sets the flag under, so Add can never race
// a Wait that already observed an empty set.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) endRequest() { s.inflight.Done() }

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

// requestsSeries names the request counter of one HTTP status.
func requestsSeries(code int) string {
	return obs.Labeled(obs.ServeRequestsTotal, "code", strconv.Itoa(code))
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.reg.Counter(requestsSeries(code)).Inc()
	resp := ErrorResponse{Error: fmt.Sprintf(format, args...)}
	// Both shed paths are retryable: 429 (backpressure) after roughly
	// one search budget, 503 (draining) once a replacement is up.
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		resp.RetryAfterMS = int(s.cfg.DefaultBudget / time.Millisecond)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.DefaultBudget+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.DefaultBudget+time.Second-1)/time.Second)))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Refresh the sampled gauges at scrape time.
	s.reg.Gauge(obs.ServeQueueDepth).Set(float64(s.queued.Load()))
	s.reg.Gauge(obs.ServeCacheEntries).Set(float64(s.cache.Len()))
	s.reg.Gauge(obs.ServeInflight).Set(float64(len(s.sem)))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Cache    plancache.Stats `json:"cache"`
		Entries  int             `json:"entries"`
		Queued   int64           `json:"queued"`
		Draining bool            `json:"draining"`
	}{s.cache.Stats(), s.cache.Len(), s.queued.Load(), s.Draining()})
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = s.trace.WriteTo(w)
}

// request carries one plan request through admission and search.
type request struct {
	req    PlanRequest
	graph  *model.Graph
	target hardware.Cluster // degraded when the request carries faults
	opts   SearchOptions    // normalized
	key    plancache.Key
}

// prepare checks the request's shape, builds and validates it, degrades
// its cluster by its faults and hashes it.
func (s *Server) prepare(pr PlanRequest) (*request, error) {
	if err := pr.checkShape(); err != nil {
		return nil, err
	}
	g, err := pr.Model.Build()
	if err != nil {
		return nil, err
	}
	healthy, faults, err := pr.Cluster.Build()
	if err != nil {
		return nil, err
	}
	target := healthy
	if faults != nil {
		target, err = healthy.Degrade(*faults)
		if err != nil {
			return nil, err
		}
	}
	opts := pr.Options.normalize(s.cfg.DefaultBudget, s.cfg.MaxBudget)
	return &request{
		req:    pr,
		graph:  g,
		target: target,
		opts:   opts,
		key: plancache.Key{
			Graph:   plancache.GraphHash(g),
			Cluster: plancache.ClusterHash(&target),
			Options: opts.hash(),
		},
	}, nil
}

func keyString(k plancache.Key) string {
	return fmt.Sprintf("%016x-%016x-%016x", k.Graph, k.Cluster, k.Options)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.beginRequest() {
		s.reg.Counter(obs.ServeDrainRejectsTotal).Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.endRequest()

	start := time.Now()
	defer func() { s.requestSeconds.Observe(time.Since(start).Seconds()) }()

	var pr PlanRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&pr); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rq, err := s.prepare(pr)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Exact cache hit: serve the stored bytes without a search slot.
	if !pr.NoCache && !pr.Stream {
		if e, ok := s.cache.Get(rq.key); ok {
			s.hitsExact.Inc()
			s.respond(w, &PlanResponse{
				Cache:     "hit",
				Key:       keyString(rq.key),
				ElapsedMS: msSince(start),
				Plan:      e.Plan,
			})
			return
		}
		s.misses.Inc()
	}

	// Admission: take a search slot or shed.
	select {
	case s.sem <- struct{}{}:
	default:
		if s.queued.Add(1) > int64(s.cfg.Queue) {
			s.queued.Add(-1)
			s.reg.Counter(obs.ServeShedTotal).Inc()
			s.writeError(w, http.StatusTooManyRequests, "server at capacity (%d running, %d queued)", s.cfg.Concurrency, s.cfg.Queue)
			return
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-r.Context().Done():
			s.queued.Add(-1)
			s.writeError(w, http.StatusRequestTimeout, "client gone while queued")
			return
		}
	}
	defer func() { <-s.sem }()

	// Per-request deadline: explicit, or the search budget plus slack.
	deadline := time.Duration(pr.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = time.Duration(rq.opts.BudgetMS)*time.Millisecond + 5*time.Second
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	if pr.Stream {
		s.servePlanSSE(ctx, w, rq, start)
		return
	}

	resp, code, err := s.runSearch(ctx, rq, nil)
	if err != nil {
		s.writeError(w, code, "%v", err)
		return
	}
	resp.ElapsedMS = msSince(start)
	s.respond(w, resp)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }

// respond writes a 200 plan response with its length up front, so a
// cached plan goes out as one unchunked body.
func (s *Server) respond(w http.ResponseWriter, resp *PlanResponse) {
	body, n, err := renderPlan(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.requestsOK.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	body.writeTo(w) // a failed write means the client is gone
}

// planBody is a rendered plan response: the envelope head, the plan
// bytes as stored, and the closing tail.
type planBody [3][]byte

// writeTo writes the parts in turn. An http.ResponseWriter has no
// vectored write, so net.Buffers would do the same and only link in a
// writev path nothing here takes.
func (b *planBody) writeTo(w io.Writer) {
	for _, p := range b {
		if _, err := w.Write(p); err != nil {
			return
		}
	}
}

// renderPlan renders resp byte for byte as json.NewEncoder(w).Encode
// does, and returns its length. Only the envelope head goes through
// encoding/json. The plan bytes, already the compact and HTML-escaped
// output of json.Marshal, are written as stored, where the encoder
// would validate and compact them again on every response.
func renderPlan(resp *PlanResponse) (planBody, int, error) {
	head, err := json.Marshal(struct {
		Cache     string  `json:"cache"`
		Key       string  `json:"key"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}{resp.Cache, resp.Key, resp.ElapsedMS})
	if err != nil {
		return planBody{}, 0, fmt.Errorf("render plan response: %w", err)
	}
	head = append(head[:len(head)-1], `,"plan":`...)
	tail := []byte("}\n")
	return planBody{head, resp.Plan, tail}, len(head) + len(resp.Plan) + len(tail), nil
}

// runSearch executes the search for rq (the caller holds a slot) and
// returns the response envelope. extraTracer, when non-nil, receives
// iteration events alongside the server's rolling trace (the SSE
// path). On error the int is the HTTP status to report.
func (s *Server) runSearch(ctx context.Context, rq *request, extraTracer obs.Tracer) (*PlanResponse, int, error) {
	opts := rq.opts.core()
	opts.Metrics = s.reg
	opts.Tracer = obs.MultiTracer(s.trace, extraTracer)

	// Near-miss warm start: same graph and options planned before
	// under a different cluster — seed from that plan.
	kind := "miss"
	var donor *plancache.Entry
	if !rq.req.NoCache {
		if e, ok := s.cache.Warm(rq.key); ok {
			donor = e
			kind = "warm"
		}
	}

	if donor != nil {
		opts = core.WarmOptions(rq.graph, donor.Config, rq.target.TotalDevices(), opts)
	}
	res, err := core.SearchContext(ctx, rq.graph, rq.target, opts)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if res == nil || res.Best.Config == nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("search produced no feasible configuration")
	}
	if donor != nil {
		s.hitsWarm.Inc()
	}

	plan := buildPlan(res)
	raw, err := json.Marshal(plan)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("marshal plan: %w", err)
	}
	s.cache.Put(&plancache.Entry{
		Key:      rq.key,
		Plan:     raw,
		Config:   plan.Config,
		Score:    plan.Score,
		Explored: plan.Explored,
	})
	return &PlanResponse{Cache: kind, Key: keyString(rq.key), Plan: raw}, 0, nil
}

// ---------------------------------------------------------------------------
// SSE streaming
// ---------------------------------------------------------------------------

// sseTracer serializes iteration events onto an SSE stream. Search
// workers call OnIteration concurrently; the mutex makes each frame
// atomic.
type sseTracer struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher
}

func (t *sseTracer) OnIteration(ev obs.IterationEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(t.w, "event: iteration\ndata: %s\n\n", data)
	if t.fl != nil {
		t.fl.Flush()
	}
}

// servePlanSSE streams progress frames followed by a final result
// frame. SSE responses are never cache hits (the point is watching the
// search run) but their results do land in the cache.
func (s *Server) servePlanSSE(ctx context.Context, w http.ResponseWriter, rq *request, start time.Time) {
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	s.reg.Counter(obs.ServeStreamsTotal).Inc()
	s.requestsOK.Inc()

	tr := &sseTracer{w: w, fl: fl}
	resp, _, err := s.runSearch(ctx, rq, tr)
	var body planBody
	if err == nil {
		resp.ElapsedMS = msSince(start)
		body, _, err = renderPlan(resp)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err != nil {
		data, _ := json.Marshal(ErrorResponse{Error: err.Error()})
		fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
	} else {
		// The rendered body ends in the newline that closes the data line.
		io.WriteString(w, "event: result\ndata: ")
		body.writeTo(w)
		io.WriteString(w, "\n")
	}
	if fl != nil {
		fl.Flush()
	}
}
