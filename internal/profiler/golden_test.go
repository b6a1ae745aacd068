package profiler_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// updateGolden rewrites testdata/ from the running code. The committed
// files were written at the commit before the class-indexed database
// (string-keyed memo.SnapMap), so they are that implementation's answer
// for every key three pinned searches ask; regenerate only for a change
// that means to move profiled times.
var updateGolden = flag.Bool("update-profiler-golden", false, "rewrite internal/profiler/testdata from the running code")

// goldenSearches are the pinned searches whose database is compared:
// the zoo shape (few names, many layers), search-deep's input and
// search-scale's (one name per op on 4 096 devices).
var goldenSearches = []struct {
	name    string
	graph   func() (*model.Graph, error)
	nodes   int
	opts    core.Options
	entries int
	dump    bool // commit the whole Save output, not only its digest
}{
	{name: "gpt3-350M-8gpu", graph: func() (*model.Graph, error) { return model.GPT3("350M") }, nodes: 1,
		opts: core.Options{MaxIterations: 4, Seed: 1}, entries: 236, dump: true},
	{name: "search-deep", graph: func() (*model.Graph, error) { return model.GPT3("2.6B") }, nodes: 2,
		opts: core.Options{MaxIterations: 4, Seed: 1}, entries: 430},
	{name: "search-scale", graph: func() (*model.Graph, error) { return model.Uniform(10240, 1e9, 1e6, 1e5, 1024), nil }, nodes: 512,
		opts: core.Options{MaxIterations: 2, Seed: 1, StageCounts: []int{8, 16, 32}}, entries: 62592},
}

type goldenDigest struct {
	Entries int    `json:"entries"`
	SHA256  string `json:"sha256"`
}

// TestSaveMatchesGolden runs each pinned search on its own model and
// compares the database it leaves — every (op, tp, dim, samples, shards,
// backward) the search asked, with the float OpTime answered — to the
// golden bytes: Save sorts its keys, so equal bytes mean the same keys
// and bit-identical times.
func TestSaveMatchesGolden(t *testing.T) {
	digestPath := filepath.Join("testdata", "save_digests.json")
	want := map[string]goldenDigest{}
	if !*updateGolden {
		raw, err := os.ReadFile(digestPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]goldenDigest{}
	for _, gs := range goldenSearches {
		g, err := gs.graph()
		if err != nil {
			t.Fatal(err)
		}
		cl := hardware.DGX1V100(gs.nodes)
		opts := gs.opts
		opts.TimeBudget = 10 * time.Minute
		opts.Model = perfmodel.New(g, cl, opts.Seed)
		if _, err := core.Search(g, cl, opts); err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
		prof := opts.Model.Prof
		var buf bytes.Buffer
		if err := prof.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", gs.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[gs.name] = goldenDigest{prof.Entries(), hex.EncodeToString(sum[:])}
		if prof.Entries() != gs.entries {
			t.Errorf("%s: %d entries, want %d", gs.name, prof.Entries(), gs.entries)
		}
		dumpPath := filepath.Join("testdata", gs.name+".db.json")
		if *updateGolden {
			if gs.dump {
				if err := os.WriteFile(dumpPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if got[gs.name] != want[gs.name] {
			t.Errorf("%s: database %+v, golden %+v", gs.name, got[gs.name], want[gs.name])
		}
		if gs.dump {
			golden, err := os.ReadFile(dumpPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("%s: Save output differs from %s", gs.name, dumpPath)
			}
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
