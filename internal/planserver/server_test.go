package planserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/obs"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tinyRequest is a deterministic, fast plan request: iteration-bounded
// search over a small model and a handful of devices.
func tinyRequest() PlanRequest {
	return PlanRequest{
		Model:   ModelSpec{Family: "tinygpt", Layers: 2, Seq: 64, Hidden: 128, Heads: 4, Batch: 8},
		Cluster: ClusterSpec{Nodes: 1, Restrict: 4},
		Options: SearchOptions{
			BudgetMS:      10_000,
			MaxIterations: 2,
			StageCounts:   []int{1, 2},
			Seed:          7,
		},
	}
}

func postPlan(t *testing.T, url string, pr PlanRequest) (*http.Response, PlanResponse) {
	t.Helper()
	body, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out PlanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, out
}

func TestPlanMissThenHitBitIdentical(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp1, out1 := postPlan(t, ts.URL, tinyRequest())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp1.StatusCode)
	}
	if out1.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", out1.Cache)
	}
	var plan Plan
	if err := json.Unmarshal(out1.Plan, &plan); err != nil {
		t.Fatalf("plan decode: %v", err)
	}
	if plan.Config == nil || len(plan.Config.Stages) == 0 || plan.IterTimeSeconds <= 0 {
		t.Fatalf("implausible plan: %+v", plan)
	}
	if len(plan.Stages) != len(plan.Config.Stages) {
		t.Fatalf("breakdown has %d stages, config %d", len(plan.Stages), len(plan.Config.Stages))
	}

	resp2, out2 := postPlan(t, ts.URL, tinyRequest())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if out2.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", out2.Cache)
	}
	if !bytes.Equal(out1.Plan, out2.Plan) {
		t.Fatal("cached plan bytes differ from the fresh search")
	}
	if out1.Key != out2.Key {
		t.Fatalf("keys differ: %s vs %s", out1.Key, out2.Key)
	}

	// NoCache forces a fresh search for the same key; the deterministic
	// search must reproduce the plan bit-identically.
	fresh := tinyRequest()
	fresh.NoCache = true
	resp3, out3 := postPlan(t, ts.URL, fresh)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("nocache request: status %d", resp3.StatusCode)
	}
	if out3.Cache != "miss" {
		t.Fatalf("nocache request cache = %q, want miss", out3.Cache)
	}
	if !bytes.Equal(out1.Plan, out3.Plan) {
		t.Fatal("fresh search not bit-identical to cached plan for the same key")
	}
}

func TestWarmNearMissOnDegradedCluster(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, out := postPlan(t, ts.URL, tinyRequest())
	if resp.StatusCode != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("seed request: status %d cache %q", resp.StatusCode, out.Cache)
	}

	// Same model and options, one dead device: exact key differs, warm
	// donor applies.
	degraded := tinyRequest()
	degraded.Cluster.Faults = &FaultsSpec{Dead: []int{3}}
	resp2, out2 := postPlan(t, ts.URL, degraded)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d", resp2.StatusCode)
	}
	if out2.Cache != "warm" {
		t.Fatalf("degraded request cache = %q, want warm", out2.Cache)
	}
	if out2.Key == out.Key {
		t.Fatal("degraded cluster produced the same cache key")
	}
	var plan Plan
	if err := json.Unmarshal(out2.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Devices >= 4 {
		t.Fatalf("degraded plan spans %d devices, want < 4", plan.Devices)
	}
	if st := s.Cache().Stats(); st.WarmHits == 0 {
		t.Fatalf("cache stats show no warm hit: %+v", st)
	}

	// Repeat of the degraded request is now an exact hit.
	resp3, out3 := postPlan(t, ts.URL, degraded)
	if resp3.StatusCode != http.StatusOK || out3.Cache != "hit" {
		t.Fatalf("degraded repeat: status %d cache %q", resp3.StatusCode, out3.Cache)
	}
	if !bytes.Equal(out2.Plan, out3.Plan) {
		t.Fatal("degraded cached plan differs")
	}
}

// TestFaultedRequestPlansLikeReplan pins the one search path of a miss:
// a request with a dead device plans, byte for byte, what core.Replan
// plans for the same graph, healthy cluster, faults and options —
// warm-started from the healthy twin's cached plan, and from cold.
func TestFaultedRequestPlansLikeReplan(t *testing.T) {
	s, ts := testServer(t, Config{})
	degraded := tinyRequest()
	degraded.Cluster.Faults = &FaultsSpec{Dead: []int{3}}
	g, err := degraded.Model.Build()
	if err != nil {
		t.Fatal(err)
	}
	healthy, faults, err := degraded.Cluster.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := degraded.Options.normalize(s.cfg.DefaultBudget, s.cfg.MaxBudget).core()
	replan := func(prev *config.Config) []byte {
		t.Helper()
		res, err := core.Replan(context.Background(), g, healthy, *faults, prev, opts)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(buildPlan(res))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	postPlan(t, ts.URL, tinyRequest())
	rq, err := s.prepare(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	donor, ok := s.Cache().Get(rq.key)
	if !ok {
		t.Fatal("healthy twin not cached")
	}
	if _, out := postPlan(t, ts.URL, degraded); out.Cache != "warm" || !bytes.Equal(out.Plan, replan(donor.Config)) {
		t.Errorf("warm dead-device plan (cache %q) differs from core.Replan's from the same donor", out.Cache)
	}
	degraded.NoCache = true
	if _, out := postPlan(t, ts.URL, degraded); out.Cache != "miss" || !bytes.Equal(out.Plan, replan(nil)) {
		t.Errorf("cold dead-device plan (cache %q) differs from core.Replan's", out.Cache)
	}
}

func TestBackpressureSheds429(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1, Queue: 1})

	slow := tinyRequest()
	slow.Model = ModelSpec{Family: "gpt3", Size: "350M"}
	slow.Options = SearchOptions{BudgetMS: 2000, Seed: 1}
	slow.NoCache = true

	const n = 6
	type shedResult struct {
		code       int
		retryAfter string
	}
	codes := make(chan shedResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(slow)
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- shedResult{code: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- shedResult{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}()
		time.Sleep(30 * time.Millisecond) // let earlier requests claim slot+queue
	}
	wg.Wait()
	close(codes)
	var ok, shed, other int
	for c := range codes {
		switch c.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if c.retryAfter == "" {
				t.Error("429 response missing Retry-After header")
			}
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("unexpected status codes: ok=%d shed=%d other=%d", ok, shed, other)
	}
	if shed == 0 {
		t.Fatalf("no request shed under overload (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("every request shed; admission never succeeded")
	}
}

func TestGracefulDrainDropsNothing(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 2, Queue: 32})

	const n = 8
	type outcome struct {
		code int
		err  error
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pr := tinyRequest()
		pr.Options.Seed = int64(100 + i) // distinct keys: all real searches
		pr.NoCache = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(pr)
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{code: resp.StatusCode}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let some requests get in flight
	s.Drain()
	wg.Wait()
	close(results)

	var served, rejected int
	for r := range results {
		if r.err != nil {
			t.Fatalf("dropped request (transport error): %v", r.err)
		}
		switch r.code {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("unexpected status %d during drain", r.code)
		}
	}
	if served+rejected != n {
		t.Fatalf("served %d + rejected %d != %d", served, rejected, n)
	}

	// Post-drain: new requests are rejected with a retry hint, health
	// reports draining with the same hint.
	resp, _ := postPlan(t, ts.URL, tinyRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain plan request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain 503 missing Retry-After header")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", hresp.StatusCode)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Error("post-drain healthz 503 missing Retry-After header")
	}
}

func TestSSEStreamsIterationsAndResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	pr := tinyRequest()
	pr.Stream = true
	body, _ := json.Marshal(pr)
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "event: iteration\n") {
		t.Fatalf("no iteration frames in stream:\n%s", text)
	}
	i := strings.LastIndex(text, "event: result\ndata: ")
	if i < 0 {
		t.Fatalf("no result frame in stream:\n%s", text)
	}
	line := text[i+len("event: result\ndata: "):]
	line = strings.TrimSpace(line)
	var out PlanResponse
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result frame decode: %v", err)
	}
	var plan Plan
	if err := json.Unmarshal(out.Plan, &plan); err != nil || plan.Config == nil {
		t.Fatalf("streamed plan invalid: %v", err)
	}
}

// TestWarmHitsCountDonorsUsed pins that the cache's warm-hit count and
// the served warm-hit metric count the same thing, a donor a search was
// seeded from: an SSE request for a cached key (SSE skips the exact
// lookup, so its search finds its own plan as the family's entry) counts
// in neither, and a near miss on another cluster counts once in each.
func TestWarmHitsCountDonorsUsed(t *testing.T) {
	s, ts := testServer(t, Config{})
	warm := func() (cache, served int64) {
		return s.Cache().Stats().WarmHits, s.Registry().Counter(obs.ServeCacheHitsTotal + `{kind="warm"}`).Value()
	}
	if resp, out := postPlan(t, ts.URL, tinyRequest()); resp.StatusCode != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("seed request: status %d cache %q", resp.StatusCode, out.Cache)
	}

	pr := tinyRequest()
	pr.Stream = true
	body, _ := json.Marshal(pr)
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(raw), "event: result\n") {
		t.Fatalf("SSE request: %v\n%s", err, raw)
	}
	if c, m := warm(); c != 0 || m != 0 {
		t.Fatalf("after an SSE request for a cached key: cache warm hits %d, served %d; want 0, 0", c, m)
	}

	degraded := tinyRequest()
	degraded.Cluster.Faults = &FaultsSpec{Dead: []int{3}}
	if resp, out := postPlan(t, ts.URL, degraded); resp.StatusCode != http.StatusOK || out.Cache != "warm" {
		t.Fatalf("near miss: status %d cache %q", resp.StatusCode, out.Cache)
	}
	if c, m := warm(); c != 1 || m != 1 {
		t.Fatalf("after one near miss: cache warm hits %d, served %d; want 1, 1", c, m)
	}
}

func TestMetricsAndStatsEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})
	postPlan(t, ts.URL, tinyRequest())
	postPlan(t, ts.URL, tinyRequest())

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE aceso_serve_requests_total counter",
		`aceso_serve_requests_total{code="200"} 2`,
		`aceso_serve_cache_hits_total{kind="exact"} 1`,
		"# TYPE aceso_serve_cache_entries gauge",
		"# TYPE aceso_serve_request_seconds histogram",
		`aceso_serve_request_seconds_count 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Entries int `json:"entries"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := testServer(t, Config{})
	mlp := ModelSpec{Family: "mlp", Layers: 2, Dim: 64, Batch: 8}
	cases := []PlanRequest{
		{Model: ModelSpec{Family: "nope"}, Cluster: ClusterSpec{Nodes: 1}},
		{Model: mlp, Cluster: ClusterSpec{Nodes: 0}},
		{Model: mlp, Cluster: ClusterSpec{Nodes: 1, Faults: &FaultsSpec{Dead: []int{99}}}},
		// Shapes over the wire's caps are refused before anything is built.
		{Model: ModelSpec{Family: "deep", Layers: maxLayers + 1}, Cluster: ClusterSpec{Nodes: 1}},
		{Model: ModelSpec{Family: "uniform", Ops: maxOps + 1, Batch: 8}, Cluster: ClusterSpec{Nodes: 1}},
		{Model: ModelSpec{Family: "mlp", Layers: 2, Dim: maxWidth + 1, Batch: 8}, Cluster: ClusterSpec{Nodes: 1}},
		{Model: mlp, Cluster: ClusterSpec{Nodes: maxNodes + 1}},
		{Model: mlp, Cluster: ClusterSpec{Nodes: 1, Restrict: maxDevices + 1}},
		{Model: mlp, Cluster: ClusterSpec{Nodes: 1, Faults: &FaultsSpec{Dead: make([]int, maxDevices+1)}}},
		{Model: mlp, Cluster: ClusterSpec{Nodes: 1, Classes: make([]DeviceClassSpec, maxClasses+1)}},
	}
	for i, pr := range cases {
		resp, _ := postPlan(t, ts.URL, pr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// The caps admit the largest shape the benchmark sends.
	if _, err := s.prepare(PlanRequest{
		Model:   ModelSpec{Family: "uniform", Ops: 10240, FLOPs: 1e9, Params: 1e6, Act: 1e5, Batch: 1024},
		Cluster: ClusterSpec{Nodes: 512},
	}); err != nil {
		t.Errorf("10 240 ops on 512 nodes: %v", err)
	}

	// A body over the limit is a typed 413, counted under its code. It is
	// sent in process: over a socket the server's early close may reset
	// the connection before the client has read the answer.
	big := `{"model":{"family":"` + strings.Repeat("x", maxBodyBytes) + `"}}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(big)))
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
		t.Errorf("oversize body: status %d, body %s, want a 413 ErrorResponse", rec.Code, rec.Body.Bytes())
	}
	if n := s.Registry().Counter(requestsSeries(http.StatusRequestEntityTooLarge)).Value(); n != 1 {
		t.Errorf(`requests{code="413"} = %d, want 1`, n)
	}

	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

func TestOptionsNormalizationSharesCacheKey(t *testing.T) {
	s, ts := testServer(t, Config{DefaultBudget: 10 * time.Second})
	a := tinyRequest()
	a.Options.BudgetMS = 10_000
	b := tinyRequest()
	b.Options.BudgetMS = 0 // server default, same normalized budget
	_, outA := postPlan(t, ts.URL, a)
	_, outB := postPlan(t, ts.URL, b)
	if outA.Key != outB.Key {
		t.Fatalf("normalized options hash differs: %s vs %s", outA.Key, outB.Key)
	}
	if outB.Cache != "hit" {
		t.Fatalf("default-budget request cache = %q, want hit", outB.Cache)
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", s.Cache().Len())
	}
}

// TestCachedDonorIsFrozen pins the freeze contract between the search
// and plancache: a configuration a Result hands out has every memo
// filled, so concurrent warm starts may key, hash and clone it without a
// write; under -race an unfilled memo (Key's, a stage's sub-hash or the
// canonical hash) is a reported race. The donors are the one the miss
// cached, every top-K configuration of a search run here, straight
// from its Result — the search itself asked for their Keys but not
// necessarily their Hashes — and a rebuild of the cached one from
// exported fields, frozen as the search freezes what it publishes,
// whose memos only Freeze ever filled.
func TestCachedDonorIsFrozen(t *testing.T) {
	s, ts := testServer(t, Config{})
	if resp, out := postPlan(t, ts.URL, tinyRequest()); resp.StatusCode != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("seed request: status %d cache %q", resp.StatusCode, out.Cache)
	}
	rq, err := s.prepare(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := s.Cache().Get(rq.key)
	if !ok || cached.Config == nil {
		t.Fatal("no cached donor")
	}
	bare := &config.Config{MicroBatch: cached.Config.MicroBatch}
	for _, st := range cached.Config.Stages {
		bare.Stages = append(bare.Stages, config.Stage{
			Start: st.Start, End: st.End, Devices: st.Devices,
			Ops: append([]config.OpSetting(nil), st.Ops...),
		})
	}
	bare.Freeze()

	res, err := core.Search(rq.graph, rq.target, core.Options{TimeBudget: time.Minute, MaxIterations: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	donors := []*config.Config{cached.Config, bare}
	for _, c := range res.TopK {
		donors = append(donors, c.Config)
	}

	for _, donor := range donors {
		want := donor.Canonical()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var arena config.Arena
				arena.Put(donor.Clone())
				c := donor.CloneIn(&arena)
				if c.Key() != donor.Key() || c.Hash() != donor.Hash() {
					t.Error("clone of the cached donor keys or hashes differently")
				}
				for si := range donor.Stages {
					if c.Stages[si].SubHash() != donor.Stages[si].SubHash() {
						t.Errorf("stage %d sub-hash differs between donor and clone", si)
					}
				}
				// A warm start mutates its clone, never the donor.
				c.MutOp(0, 0, func(o *config.OpSetting) { o.Recompute = !o.Recompute })
				if c.Key() == donor.Key() || c.Hash() == donor.Hash() {
					t.Error("mutated clone still keys or hashes as the donor")
				}
			}()
		}
		wg.Wait()
		if got := donor.Canonical(); got != want {
			t.Errorf("donor changed under concurrent warm starts:\n got %s\nwant %s", got, want)
		}
	}
}

// zooRequests is a mixed workload of request shapes: four model
// families, two fleet sizes, two seeds, and one degraded twin of the
// first entry (same graph and options, device 3 dead), which a server
// that has planned the first serves by warm start.
func zooRequests() (zoo []PlanRequest, degraded PlanRequest) {
	tiny9 := tinyRequest()
	tiny9.Options.Seed = 9
	bigger := PlanRequest{
		Model:   ModelSpec{Family: "tinygpt", Layers: 4, Seq: 128, Hidden: 256, Heads: 4, Batch: 16},
		Cluster: ClusterSpec{Nodes: 1, Restrict: 8},
		Options: SearchOptions{BudgetMS: 10_000, MaxIterations: 2, StageCounts: []int{2, 4}, Seed: 7},
	}
	mlp := PlanRequest{
		Model:   ModelSpec{Family: "mlp", Layers: 4, Dim: 256, Batch: 16},
		Cluster: ClusterSpec{Nodes: 1, Restrict: 4},
		Options: SearchOptions{BudgetMS: 10_000, MaxIterations: 2, StageCounts: []int{1, 2}, Seed: 3},
	}
	mlpnorm := mlp
	mlpnorm.Model.Family = "mlpnorm"
	uni := PlanRequest{
		Model:   ModelSpec{Family: "uniform", Ops: 16, FLOPs: 1e9, Params: 1e6, Act: 1e5, Batch: 8},
		Cluster: ClusterSpec{Nodes: 1, Restrict: 4},
		Options: SearchOptions{BudgetMS: 10_000, MaxIterations: 2, StageCounts: []int{1, 2}, Seed: 5},
	}
	uniWide := uni
	uniWide.Model.Ops = 24
	uniWide.Cluster.Restrict = 8
	uniWide.Options.StageCounts = []int{2, 4}
	degraded = tinyRequest()
	degraded.Cluster.Faults = &FaultsSpec{Dead: []int{3}}
	return []PlanRequest{tinyRequest(), tiny9, bigger, mlp, mlpnorm, uni, uniWide}, degraded
}

// TestConcurrentZooServesFreshSearchBytes loads one server with the zoo
// from 32 clients at once — exact hits contending with the forced
// searches of a NoCache slice — and requires that nothing fails and
// that what the loaded cache then serves for every healthy key is,
// byte for byte, what a virgin server plans from cold.
func TestConcurrentZooServesFreshSearchBytes(t *testing.T) {
	const clients, rounds = 32, 8
	zoo, degraded := zooRequests()
	// The load must shed nothing, however many requests queue.
	_, ts := testServer(t, Config{Queue: clients * rounds})

	// The healthy keys are planned first, one at a time: planned after
	// the degraded twin they would be warm-started from it, and a virgin
	// server has no donor to reproduce that from.
	for i, pr := range zoo {
		if resp, out := postPlan(t, ts.URL, pr); resp.StatusCode != http.StatusOK || out.Cache != "miss" {
			t.Fatalf("seed %d: status %d cache %q, want 200 miss", i, resp.StatusCode, out.Cache)
		}
	}
	if resp, out := postPlan(t, ts.URL, degraded); resp.StatusCode != http.StatusOK || out.Cache != "warm" {
		t.Fatalf("degraded probe: status %d cache %q, want 200 warm", resp.StatusCode, out.Cache)
	}

	mix := append(zoo, degraded)
	var hits atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := c*rounds + r
				pr := mix[i%len(mix)]
				pr.NoCache = i%17 == 0 // keep real searches in flight among the hits
				body, _ := json.Marshal(pr)
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					continue
				}
				var out PlanResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("request %d: status %d, decode error %v", i, resp.StatusCode, err)
				}
				if out.Cache == "hit" {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no exact hit on a repeated-request mix")
	}

	_, virgin := testServer(t, Config{})
	for i, pr := range zoo {
		resp, cached := postPlan(t, ts.URL, pr)
		if resp.StatusCode != http.StatusOK || cached.Cache != "hit" {
			t.Fatalf("key %d on the loaded server: status %d cache %q, want 200 hit", i, resp.StatusCode, cached.Cache)
		}
		resp, fresh := postPlan(t, virgin.URL, pr)
		if resp.StatusCode != http.StatusOK || fresh.Cache != "miss" {
			t.Fatalf("key %d on the virgin server: status %d cache %q, want 200 miss", i, resp.StatusCode, fresh.Cache)
		}
		if !bytes.Equal(cached.Plan, fresh.Plan) {
			t.Errorf("key %d (%s): cached plan differs from a fresh search", i, cached.Key)
		}
	}
}
