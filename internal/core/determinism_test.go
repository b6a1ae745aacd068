package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"aceso/internal/hardware"
	"aceso/internal/model"
)

var updateDeterminism = flag.Bool("update-determinism", false,
	"rewrite testdata/determinism.json from the searches TestDeterminismTable runs")

const determinismFile = "testdata/determinism.json"

// determinismRow pins one seeded, iteration-bounded search: how many
// configurations it explored, the canonical hash of its best plan and
// the canonical hashes of its top-K in rank order.
type determinismRow struct {
	Model      string   `json:"model"`
	Fleet      string   `json:"fleet"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Explored   int      `json:"explored"`
	Best       string   `json:"best"`
	TopK       []string `json:"topk"`
}

// TestDeterminismTable is the first slice of the determinism matrix
// (ROADMAP item 3): the exploration sequence — and with it every score
// tie broken by canonical hash — must be the committed one on every
// zoo model × fleet shape × GOMAXPROCS, not only on the GPT-3 2.6B /
// 16 V100 setting BENCH_search.json pins. The table was generated
// before configuration identity moved off Config.Hash, so a change to
// what breaks ties, or to which configurations count as seen, shows up
// here as a diff. Regenerate with -update-determinism.
func TestDeterminismTable(t *testing.T) {
	if testing.Short() {
		t.Skip("50 searches")
	}
	models := []struct {
		name  string
		build func() (*model.Graph, error)
	}{
		{"gpt3-350M", func() (*model.Graph, error) { return model.GPT3("350M") }},
		{"gpt3-1.3B", func() (*model.Graph, error) { return model.GPT3("1.3B") }},
		{"gpt3-2.6B", func() (*model.Graph, error) { return model.GPT3("2.6B") }},
		{"t5-770M", func() (*model.Graph, error) { return model.T5("770M") }},
		{"wresnet-0.5B", func() (*model.Graph, error) { return model.WideResNet("0.5B") }},
	}
	healthy := hardware.DGX1V100(2)
	dead15, err := healthy.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{{Device: 15, Dead: true}}})
	if err != nil {
		t.Fatal(err)
	}
	fleets := []struct {
		name string
		cl   hardware.Cluster
	}{
		{"DGX1V100(1)", hardware.DGX1V100(1)},
		{"DGX1V100(2)", hardware.DGX1V100(2)},
		{"A100V100(1,1)", hardware.A100V100(1, 1)},
		{"DGX1V100(2)-dead15", dead15},
		{"ReservedSpotV100(8,1,1)", hardware.ReservedSpotV100(8, 1, 1, 6, 120)},
	}

	var got []determinismRow
	for _, m := range models {
		g, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fleets {
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				res, err := Search(g, f.cl, Options{
					TimeBudget:    time.Hour, // iterations are the binding limit
					MaxIterations: 4,
					Seed:          1,
				})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s on %s: %v", m.name, f.name, err)
				}
				row := determinismRow{
					Model: m.name, Fleet: f.name, GOMAXPROCS: procs,
					Explored: res.Explored,
					Best:     fmt.Sprintf("%016x", res.Best.Config.Hash()),
				}
				for _, c := range res.TopK {
					row.TopK = append(row.TopK, fmt.Sprintf("%016x", c.Config.Hash()))
				}
				got = append(got, row)
			}
		}
	}

	if *updateDeterminism {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(determinismFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(determinismFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []determinismRow
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d searches ran, %s has %d rows", len(got), determinismFile, len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("row %d drifted:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
