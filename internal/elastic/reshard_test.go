package elastic

import (
	"testing"

	"aceso/internal/config"
	"aceso/internal/model"
	"aceso/internal/runtime"
)

// reshardConfigs is the cross-product of plans the identity test walks:
// different pipeline cut points, tensor-parallel widths, data-parallel
// degrees, and mixed row/col partition dims.
func reshardConfigs(t *testing.T, g *model.Graph) map[string]*config.Config {
	return map[string]*config.Config{
		"pp1":        uniformCfg(t, g, 1, 1, 1, 1, 4),
		"pp2":        uniformCfg(t, g, 2, 1, 1, 1, 4),
		"pp4":        uniformCfg(t, g, 4, 1, 1, 1, 4),
		"tp4":        uniformCfg(t, g, 1, 4, 4, 1, 4),
		"dp4":        uniformCfg(t, g, 1, 4, 1, 4, 8),
		"tp2dp2":     uniformCfg(t, g, 1, 4, 2, 2, 4),
		"pp2tp2":     uniformCfg(t, g, 2, 2, 2, 1, 4),
		"pp2_tp2dp2": uniformCfg(t, g, 2, 4, 2, 2, 4),
		"tp4row":     rowCfg(t, g, uniformCfg(t, g, 1, 4, 4, 1, 4)),
	}
}

// rowCfg switches every matmul of cfg that has a second partition dim
// to it: row-parallel where uniformCfg cut columns, and the reverse.
func rowCfg(t *testing.T, g *model.Graph, cfg *config.Config) *config.Config {
	t.Helper()
	for i := range cfg.Stages {
		st := &cfg.Stages[i]
		for j := st.Start; j < st.End; j++ {
			if g.Ops[j].Kind == model.KindMatMul && len(g.Ops[j].Dims) > 1 {
				st.Setting(j).Dim = 1
			}
		}
	}
	if err := cfg.Validate(g, cfg.TotalDevices()); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// reshardModel is an untrained state and the plans the reshard tests
// cut it under, base among them. prefix names the model in subtests.
type reshardModel struct {
	prefix string
	g      *model.Graph
	p      *runtime.Params
	cfgs   map[string]*config.Config
}

// reshardModels covers every tensor the runtime shards: the MLP's
// matmuls under every plan, and on four plans each a layer-norm gain
// and bias (MLPWithNorm) and a transformer's QKV, projection and MLP
// weights, column- and row-parallel (TinyGPT).
func reshardModels(t *testing.T) []reshardModel {
	mlp := buildMLP(t)
	norm, err := model.MLPWithNorm(2, dim, batch)
	if err != nil {
		t.Fatal(err)
	}
	// Two tokens per sample: batch/2 samples span trainData's rows.
	gpt, err := model.TinyGPT(1, 2, dim, 4, batch/2)
	if err != nil {
		t.Fatal(err)
	}
	gptParams, err := runtime.InitParamsArch(gpt, runtime.Arch{Seq: 2, Hidden: dim, Heads: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	four := func(g *model.Graph) map[string]*config.Config {
		return map[string]*config.Config{
			"pp2tp2":     uniformCfg(t, g, 2, 2, 2, 1, 4),
			"tp4":        uniformCfg(t, g, 1, 4, 4, 1, 4),
			"pp2_tp2dp2": uniformCfg(t, g, 2, 4, 2, 2, 4),
			"tp4row":     rowCfg(t, g, uniformCfg(t, g, 1, 4, 4, 1, 4)),
		}
	}
	return []reshardModel{
		{"", mlp, runtime.InitParams(mlp, 7), reshardConfigs(t, mlp)},
		{"mlpln_", norm, runtime.InitParams(norm, 7), four(norm)},
		{"tinygpt_", gpt, gptParams, four(gpt)},
	}
}

// TestReshardRoundTripIsBitwiseIdentity is the tentpole equivalence
// contract: for every pair of plans (A, B), shard-under-A → reshard to
// B → reshard back to A must reproduce the exact float64 bits of the
// original state — weights, biases, step and all four Adam moment maps.
func TestReshardRoundTripIsBitwiseIdentity(t *testing.T) {
	for _, m := range reshardModels(t) {
		base := m.cfgs["pp2tp2"]
		stA, p := trainedStateOf(t, m.g, m.p, base)
		for name, cfgB := range m.cfgs {
			t.Run(m.prefix+"via_"+name, func(t *testing.T) {
				stB, err := Reshard(m.g, cfgB, stA)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Reshard(m.g, base, stB)
				if err != nil {
					t.Fatal(err)
				}
				q, err := AssembleState(back)
				if err != nil {
					t.Fatal(err)
				}
				if d := p.MaxDiff(q); d != 0 {
					t.Fatalf("A→%s→A differs by %g, want bitwise identity", name, d)
				}
				if back.Step != stA.Step || back.Seed != stA.Seed || back.Opt != stA.Opt {
					t.Fatalf("scalar state lost in round trip: %+v vs %+v",
						back.Step, stA.Step)
				}
			})
		}
	}
}

// TestReshardAllPairsAssemble: every plan's sharding covers the state
// exactly (assembly succeeds and matches) — not just the round trip.
func TestReshardAllPairsAssemble(t *testing.T) {
	for _, m := range reshardModels(t) {
		stA, p := trainedStateOf(t, m.g, m.p, uniformCfg(t, m.g, 1, 1, 1, 1, 4))
		for name, cfg := range m.cfgs {
			st, err := Reshard(m.g, cfg, stA)
			if err != nil {
				t.Fatalf("%s%s: %v", m.prefix, name, err)
			}
			q, err := AssembleState(st)
			if err != nil {
				t.Fatalf("%s%s: %v", m.prefix, name, err)
			}
			if d := p.MaxDiff(q); d != 0 {
				t.Errorf("%s%s: assembled state differs by %g", m.prefix, name, d)
			}
		}
	}
}

// TestBytesMovedZeroForIdentity: resharding a state onto its own plan
// moves nothing; onto a different plan it moves something.
func TestBytesMovedZeroForIdentity(t *testing.T) {
	g := buildMLP(t)
	cfgA := uniformCfg(t, g, 2, 2, 2, 1, 4)
	cfgB := uniformCfg(t, g, 1, 4, 4, 1, 4)
	stA, _ := trainedState(t, g, cfgA)

	same, err := Reshard(g, cfgA, stA)
	if err != nil {
		t.Fatal(err)
	}
	if b := BytesMoved(stA, same, nil, nil); b != 0 {
		t.Errorf("identity reshard moved %d bytes, want 0", b)
	}

	stB, err := Reshard(g, cfgB, stA)
	if err != nil {
		t.Fatal(err)
	}
	if b := BytesMoved(stA, stB, nil, nil); b <= 0 {
		t.Errorf("cross-plan reshard moved %d bytes, want > 0", b)
	}
}

// TestBytesMovedRankMapping: with a rank-mapping that relocates every
// destination rank to a different physical device, even an identical
// plan must move all its bytes.
func TestBytesMovedRankMapping(t *testing.T) {
	g := buildMLP(t)
	cfg := uniformCfg(t, g, 2, 2, 2, 1, 4)
	st, _ := trainedState(t, g, cfg)
	shift := func(r int) int { return r + 100 } // disjoint physical ranks
	moved := BytesMoved(st, st, nil, shift)
	var total int64
	for ri := range st.Ranks {
		for ti := range st.Ranks[ri].Tensors {
			total += int64(len(st.Ranks[ri].Tensors[ti].Data)) * 8
		}
	}
	if moved != total {
		t.Errorf("full relocation moved %d bytes, want all %d", moved, total)
	}
}
