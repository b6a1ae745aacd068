package planserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// hotKeys is the benchmark's serve-hit population (bench/gen.go, a
// module of its own, so rebuilt here): eight zoo models × four fleets,
// in the order the benchmark plans them — per model the healthy fleets
// first, so the fleet with a dead device warm-starts.
func hotKeys() []PlanRequest {
	models := []ModelSpec{
		{Family: "gpt3", Size: "350M"}, {Family: "gpt3", Size: "1.3B"},
		{Family: "gpt3", Size: "2.6B"}, {Family: "gpt3", Size: "6.7B"},
		{Family: "t5", Size: "770M"}, {Family: "t5", Size: "3B"},
		{Family: "wideresnet", Size: "0.5B"}, {Family: "wideresnet", Size: "2B"},
	}
	clusters := []ClusterSpec{
		{Nodes: 1},
		{Nodes: 2},
		{Preset: "a100v100", Nodes: 2},
		{Nodes: 2, Faults: &FaultsSpec{Dead: []int{15}}},
	}
	var out []PlanRequest
	for _, m := range models {
		for _, c := range clusters {
			out = append(out, PlanRequest{
				Model:   m,
				Cluster: c,
				Options: SearchOptions{BudgetMS: 30_000, MaxIterations: 2, Seed: 1},
			})
		}
	}
	return out
}

// serveInProcess sends pr through the handler without a socket.
func serveInProcess(t *testing.T, s *Server, pr PlanRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s on %+v: status %d: %s", pr.Model.Family, pr.Model.Size, pr.Cluster, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// TestResponseBytesMatchEncoder holds the renderer to the encoding it
// replaced: over the benchmark's hot set, every miss, warm, hit and SSE
// result body is byte for byte what json.NewEncoder(w).Encode (for SSE,
// json.Marshal) writes for the response it carries, the plan in it is
// the cached entry's bytes, and a plain response declares its length.
func TestResponseBytesMatchEncoder(t *testing.T) {
	s := New(Config{})
	kinds := map[string]int{}
	for _, pr := range hotKeys() {
		rq, err := s.prepare(pr)
		if err != nil {
			t.Fatal(err)
		}
		name := pr.Model.Family + "-" + pr.Model.Size + " " + keyString(rq.key)

		var plans [][]byte
		for range 2 { // the search, then the hit
			rec := serveInProcess(t, s, pr)
			body := rec.Body.Bytes()
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
				t.Errorf("%s: Content-Length %q for a %d-byte body", name, got, len(body))
			}
			var resp PlanResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Errorf("%s: %s body differs from the encoder's:\n got %.200s\nwant %.200s", name, resp.Cache, body, want.Bytes())
			}
			kinds[resp.Cache]++
			plans = append(plans, resp.Plan)
		}
		e, ok := s.Cache().Get(rq.key)
		if !ok {
			t.Fatalf("%s: not cached", name)
		}
		for _, p := range plans {
			if !bytes.Equal(p, e.Plan) {
				t.Errorf("%s: served plan differs from the cached bytes", name)
			}
		}

		stream := pr
		stream.Stream = true
		text := serveInProcess(t, s, stream).Body.String()
		const frame = "event: result\ndata: "
		i := strings.LastIndex(text, frame)
		if i < 0 || !strings.HasSuffix(text, "\n\n") {
			t.Fatalf("%s: stream does not end in a result frame:\n%.500s", name, text)
		}
		data := text[i+len(frame) : len(text)-2]
		var resp PlanResponse
		if err := json.Unmarshal([]byte(data), &resp); err != nil {
			t.Fatalf("%s: result frame: %v", name, err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if data != string(want) {
			t.Errorf("%s: result frame differs from json.Marshal's:\n got %.200s\nwant %.200s", name, data, want)
		}
		// A stream is a fresh search, which may warm-start from another
		// fleet's plan; what it served is what it stored.
		if e, ok = s.Cache().Get(rq.key); !ok || !bytes.Equal(resp.Plan, e.Plan) {
			t.Errorf("%s: streamed plan differs from the bytes it cached", name)
		}
	}
	if kinds["miss"] == 0 || kinds["warm"] == 0 || kinds["hit"] != len(hotKeys()) {
		t.Errorf("responses by cache kind %v: want misses, warm starts and one hit per key", kinds)
	}
}

// sinkWriter is a ResponseWriter that keeps nothing, so a benchmark of
// the handler counts only the handler's own allocations.
type sinkWriter struct {
	h    http.Header
	code int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(code int)        { w.code = code }
func (w *sinkWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkHandlerHit times one exact hit through the handler in
// process, GPT-3 2.6B on 16 V100s: decode, shape check, graph build and
// hash, cache lookup and rendering, with no socket.
func BenchmarkHandlerHit(b *testing.B) {
	s := New(Config{})
	body, err := json.Marshal(PlanRequest{
		Model:   ModelSpec{Family: "gpt3", Size: "2.6B"},
		Cluster: ClusterSpec{Nodes: 2},
		Options: SearchOptions{BudgetMS: 30_000, MaxIterations: 2, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	w := &sinkWriter{h: http.Header{}}
	serve := func() {
		w.code = 0
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	serve() // plans the key
	if st := s.Cache().Stats(); st.Puts != 1 {
		b.Fatalf("cache stats after planning: %+v", st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if st := s.Cache().Stats(); st.Hits != int64(b.N) {
		b.Fatalf("%d hits for %d requests", st.Hits, b.N)
	}
}
