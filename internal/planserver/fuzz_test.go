package planserver

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// prepareBudget bounds what one request may cost before admission. The
// largest shape the caps admit builds and hashes in tens of
// milliseconds; the budget leaves room for the race detector and a
// loaded host.
const prepareBudget = 2 * time.Second

// FuzzPlanRequestNeverPanics feeds arbitrary bytes through everything
// the handler does with a body before a search slot — decode, shape
// check, model and cluster build, degrade, hash — and holds the wire's
// contract: a prepared request or a typed error, never a panic, and
// never more than prepareBudget, whatever the bytes ask for. No search
// runs.
func FuzzPlanRequestNeverPanics(f *testing.F) {
	zoo, degraded := zooRequests()
	seeds := append(append(zoo, degraded), hotKeys()...)
	seeds = append(seeds, PlanRequest{ // the benchmark's largest shape
		Model:   ModelSpec{Family: "uniform", Ops: 10240, FLOPs: 1e9, Params: 1e6, Act: 1e5, Batch: 1024},
		Cluster: ClusterSpec{Nodes: 512},
		Options: SearchOptions{MaxIterations: 2, Seed: 1, StageCounts: []int{8, 16, 32}},
	})
	for _, pr := range seeds {
		body, err := json.Marshal(pr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		``, `{}`, `null`, `[]`, `{"model":`,
		`{"model":{"family":"uniform","ops":32768,"batch":1},"cluster":{"nodes":1024}}`,
		`{"model":{"family":"deep","layers":4096},"cluster":{"nodes":1024,"restrict":8192}}`,
		`{"model":{"family":"tinygpt","layers":4096,"seq":65536,"hidden":65536,"heads":65536,"batch":65536},"cluster":{"nodes":1}}`,
		`{"model":{"family":"mlp","layers":1,"dim":1,"batch":1},"cluster":{"preset":"a100v100","nodes":2,"node_classes":[0,7]}}`,
		`{"model":{"family":"mlp","layers":1,"dim":1,"batch":1},"cluster":{"nodes":1,"classes":[{"name":"x"}],"node_classes":[0]}}`,
		`{"model":{"family":"mlp","layers":1,"dim":1,"batch":1},"cluster":{"nodes":1,"faults":{"dead":[0,1,2,3,4,5,6,7]}}}`,
		`{"model":{"family":"mlp","layers":1,"dim":1,"batch":1},"cluster":{"nodes":1,"restrict":3,"faults":{"derates":[{"device":2,"flops_scale":-1}]}}}`,
	} {
		f.Add([]byte(body))
	}

	s := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pr PlanRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&pr); err != nil {
			return
		}
		start := time.Now()
		rq, err := s.prepare(pr)
		if d := time.Since(start); d > prepareBudget {
			t.Fatalf("prepare took %v (budget %v) for %s", d, prepareBudget, data)
		}
		if err != nil {
			return // a typed rejection is the contract
		}
		if rq.target.TotalDevices() <= 0 || len(rq.graph.Ops) == 0 {
			t.Fatalf("prepared an empty problem: %d devices, %d ops", rq.target.TotalDevices(), len(rq.graph.Ops))
		}
		if err := rq.target.Validate(); err != nil {
			t.Fatalf("prepared an invalid cluster: %v", err)
		}
		if err := rq.graph.Validate(); err != nil {
			t.Fatalf("prepared an invalid graph: %v", err)
		}
	})
}
