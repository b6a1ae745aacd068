package main

import (
	"testing"
	"time"

	"aceso/internal/hardware"
	"aceso/internal/model"
)

func trace() []Event {
	return []Event{
		{At: 0, GPUs: 8},
		{At: 30 * time.Minute, GPUs: 4},
		{At: 60 * time.Minute, GPUs: 8},
	}
}

func TestRunComparesStrategies(t *testing.T) {
	g, _ := model.GPT3("1.3B")
	base := hardware.DGX1V100(1)
	results, err := Run(g, base, trace(), 90*time.Minute, []Strategy{
		AcesoStrategy{Budget: 300 * time.Millisecond, Seed: 1},
		AcesoStrategy{Budget: 300 * time.Millisecond, Seed: 1, Warm: true},
		AlpaStrategy{Seed: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Strategy] = r
		if r.Samples <= 0 {
			t.Errorf("%s trained no samples", r.Strategy)
		}
		if len(r.Windows) != 3 {
			t.Errorf("%s: %d windows, want 3", r.Strategy, len(r.Windows))
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s: utilization %v", r.Strategy, r.Utilization)
		}
	}
	// The Alpa-like planner's emulated compile time must cost real
	// training time compared to Aceso — the paper's motivation.
	if byName["alpa"].PlanOverhead <= byName["aceso"].PlanOverhead {
		t.Error("alpa plan overhead should exceed aceso's")
	}
	if byName["alpa"].Utilization >= byName["aceso"].Utilization {
		t.Error("aceso should utilize the cluster better under churn")
	}
}

func TestRunValidatesTrace(t *testing.T) {
	g, _ := model.GPT3("350M")
	base := hardware.DGX1V100(1)
	strat := []Strategy{AcesoStrategy{Budget: 100 * time.Millisecond, Seed: 1}}

	if _, err := Run(g, base, nil, time.Hour, strat, 1); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Run(g, base, []Event{{At: time.Minute, GPUs: 4}}, time.Hour, strat, 1); err == nil {
		t.Error("trace not starting at 0 accepted")
	}
	if _, err := Run(g, base, []Event{{At: 0, GPUs: 4}, {At: 0, GPUs: 8}}, time.Hour, strat, 1); err == nil {
		t.Error("unordered trace accepted")
	}
	if _, err := Run(g, base, []Event{{At: 0, GPUs: 4}}, 0, strat, 1); err == nil {
		t.Error("horizon before last event accepted")
	}
}

func TestPlanningTimeEatsTraining(t *testing.T) {
	// A window shorter than the planning time yields zero samples.
	g, _ := model.GPT3("350M")
	base := hardware.DGX1V100(1)
	events := []Event{{At: 0, GPUs: 4}, {At: 200 * time.Millisecond, GPUs: 8}}
	results, err := Run(g, base, events, time.Hour, []Strategy{
		AcesoStrategy{Budget: 400 * time.Millisecond, Seed: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w := results[0].Windows[0]; w.Samples != 0 {
		t.Errorf("window shorter than planning trained %v samples, want 0", w.Samples)
	}
	if results[0].Windows[1].Samples <= 0 {
		t.Error("long window should train")
	}
}
