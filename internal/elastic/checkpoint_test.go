package elastic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"aceso/internal/config"
	"aceso/internal/model"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

const (
	dim    = 8
	layers = 4
	batch  = 16
	lr     = 0.05
)

func buildMLP(t testing.TB) *model.Graph {
	t.Helper()
	g, err := model.MLP(layers, dim, batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func trainData(seed int64) (x, y *tensor.Mat) {
	rng := rand.New(rand.NewSource(seed))
	x = tensor.New(batch, dim)
	y = tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	return x, y
}

// uniformCfg builds a config with the same tp/dp on every op.
func uniformCfg(t testing.TB, g *model.Graph, stages, devPerStage, tp, dp, mbs int) *config.Config {
	t.Helper()
	cfg, err := config.Balanced(g, stages*devPerStage, stages, mbs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: tp, DP: dp, Dim: 0}
		}
	}
	if err := cfg.Validate(g, stages*devPerStage); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// trainedState returns a sharded state with real Adam moments.
func trainedState(t *testing.T, g *model.Graph, cfg *config.Config) (*State, *runtime.Params) {
	t.Helper()
	return trainedStateOf(t, g, runtime.InitParams(g, 7), cfg)
}

// trainedStateOf trains p two Adam steps on trainData, which fits any
// graph whose batch spans batch rows of dim columns, and shards it
// under cfg.
func trainedStateOf(t *testing.T, g *model.Graph, p *runtime.Params, cfg *config.Config) (*State, *runtime.Params) {
	t.Helper()
	p.Opt = runtime.Adam
	x, y := trainData(42)
	if _, err := runtime.Serial(g, p, x, y, cfg.MicroBatch, lr, 2); err != nil {
		t.Fatal(err)
	}
	st, err := ShardState(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return st, p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := buildMLP(t)
	cfg := uniformCfg(t, g, 2, 2, 2, 1, 4)
	st, p := trainedState(t, g, cfg)

	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != st.Step || got.Seed != st.Seed || got.Opt != st.Opt {
		t.Fatalf("scalar state: got {%d %d %d}, want {%d %d %d}",
			got.Step, got.Seed, got.Opt, st.Step, st.Seed, st.Opt)
	}
	// Bitwise identity through assembly.
	q, err := AssembleState(got)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.MaxDiff(q); d != 0 {
		t.Fatalf("round-tripped state differs by %g, want bitwise identity", d)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	g := buildMLP(t)
	cfg := uniformCfg(t, g, 1, 4, 2, 2, 4)
	st, p := trainedState(t, g, cfg)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries after Save, want 1", len(entries))
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	q, err := AssembleState(got)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.MaxDiff(q); d != 0 {
		t.Fatalf("loaded state differs by %g", d)
	}
}

// TestEncodeMatchesDigest pins the checkpoint bytes of one fixed Adam
// state: MLPWithNorm trained two Serial steps, sharded under pp2×tp2.
// Equal digests mean the same shards, in the same order within each
// rank, carrying the same float bits; the format is versioned, so
// these bytes may change only with FormatVersion.
func TestEncodeMatchesDigest(t *testing.T) {
	g, err := model.MLPWithNorm(2, dim, batch)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := trainedState(t, g, uniformCfg(t, g, 2, 2, 2, 1, 4))
	raw, err := os.ReadFile(filepath.Join("testdata", "encode_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(Encode(st))
	if got := hex.EncodeToString(sum[:]); got != want["mlpln-pp2tp2"] {
		t.Errorf("Encode sha256 %s, golden %s", got, want["mlpln-pp2tp2"])
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	g := buildMLP(t)
	cfg := uniformCfg(t, g, 2, 1, 1, 1, 4)
	st, _ := trainedState(t, g, cfg)
	good := Encode(st)

	t.Run("bit flip payload", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[headerLen+5] ^= 0x40
		var ce *ChecksumError
		if _, err := Decode(bad); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *ChecksumError", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, headerLen, len(good) - 9, len(good) - 1} {
			if _, err := Decode(good[:n]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		var fe *FormatError
		if _, err := Decode(bad); !errors.As(err, &fe) {
			t.Fatalf("err = %v, want *FormatError", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = 99
		var ve *VersionError
		if _, err := Decode(bad); !errors.As(err, &ve) || ve.Got != 99 {
			t.Fatalf("err = %v, want *VersionError{Got: 99}", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), good...), 0xAB)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestAssembleRejectsGapsAndOverlaps(t *testing.T) {
	g := buildMLP(t)
	cfg := uniformCfg(t, g, 1, 4, 4, 1, 4)
	st, _ := trainedState(t, g, cfg)

	// Gap: drop one rank's shards entirely.
	gap := &State{Step: st.Step, Seed: st.Seed, Opt: st.Opt, Ranks: st.Ranks[1:]}
	if _, err := AssembleState(gap); err == nil {
		t.Fatal("assembly with a missing rank succeeded")
	}

	// Overlap: duplicate a rank.
	dup := &State{Step: st.Step, Seed: st.Seed, Opt: st.Opt,
		Ranks: append(append([]RankShard(nil), st.Ranks...), st.Ranks[0])}
	if _, err := AssembleState(dup); err == nil {
		t.Fatal("assembly with duplicated shards succeeded")
	}

	// Missing tensor: drop every shard of op 0's kind k. The rest still
	// covers exactly, so only the required set can catch it — and must,
	// before Reshard cuts the incomplete state.
	for _, k := range []runtime.TensorKind{runtime.B, runtime.MB} {
		cut := &State{Step: st.Step, Seed: st.Seed, Opt: st.Opt}
		for _, rs := range st.Ranks {
			kept := RankShard{Rank: rs.Rank}
			for _, sh := range rs.Tensors {
				if sh.Op != 0 || sh.Kind != k {
					kept.Tensors = append(kept.Tensors, sh)
				}
			}
			cut.Ranks = append(cut.Ranks, kept)
		}
		var mt *runtime.MissingTensorError
		if _, err := AssembleState(cut); !errors.As(err, &mt) || mt.Op != 0 || mt.Kind != k {
			t.Errorf("assembly without op 0's %v: err = %v, want *runtime.MissingTensorError", k, err)
		}
		if _, err := Reshard(g, cfg, cut); !errors.As(err, &mt) {
			t.Errorf("reshard without op 0's %v: err = %v, want *runtime.MissingTensorError", k, err)
		}
	}
}

// TestCrashBetweenWriteAndRenameLeavesLineageIntact simulates Save
// dying after its temp file was fully written and fsynced but before
// the rename: the prior checkpoint must still load (atomicity), and
// SweepTemps must clear exactly the orphaned temp on startup.
func TestCrashBetweenWriteAndRenameLeavesLineageIntact(t *testing.T) {
	g := buildMLP(t)
	cfg := uniformCfg(t, g, 1, 4, 2, 2, 4)
	st, p := trainedState(t, g, cfg)
	dir := t.TempDir()
	path := filepath.Join(dir, "aceso.ckpt")
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}

	// Replay Save's steps up to (not including) the rename — the crash
	// point. The orphan is a fully-written, checksummed payload of a
	// *newer* state that never became the checkpoint.
	newer := &State{Step: st.Step + 1, Seed: st.Seed, Opt: st.Opt, Ranks: st.Ranks}
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(Encode(newer)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A second, torn orphan from an even earlier crash mid-write.
	torn := filepath.Join(dir, ".ckpt-torn")
	if err := os.WriteFile(torn, Encode(newer)[:10], 0o644); err != nil {
		t.Fatal(err)
	}

	// The committed checkpoint is untouched by the crashed attempt.
	got, err := Load(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after crashed save attempt: %v", err)
	}
	if got.Step != st.Step {
		t.Fatalf("loaded step %d, want %d (the orphan must not be visible)", got.Step, st.Step)
	}

	removed, err := SweepTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("SweepTemps removed %d files, want 2", removed)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "aceso.ckpt" {
		t.Fatalf("dir not clean after sweep: %v", entries)
	}
	// Lineage continues: the next Save + Load round-trips bitwise.
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	q, err := AssembleState(got)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.MaxDiff(q); d != 0 {
		t.Fatalf("post-sweep lineage differs by %g", d)
	}
	if _, err := SweepTemps(dir); err != nil {
		t.Fatal(err)
	}
}
