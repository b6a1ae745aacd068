package elastic

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"aceso/internal/obs"
)

// ledgerSeries is what a registry must read after rep is published: one
// series per Report field, the labelled families per map key or
// transition kind, and the recovery histogram's count.
func ledgerSeries(rep *Report) map[string]float64 {
	n := float64(len(rep.Recoveries))
	m := map[string]float64{
		obs.ElasticCheckpointsTotal:              float64(rep.Checkpoints),
		obs.ElasticRestoresTotal:                 float64(rep.Restores),
		obs.ElasticReshardsTotal:                 float64(rep.Reshards),
		obs.ElasticReshardBytesMovedTotal:        float64(rep.ReshardBytesMoved),
		obs.ChurnFaultsTotal:                     float64(rep.FaultsDetected),
		obs.ChurnReplansTotal:                    float64(rep.Replans),
		obs.ChurnReplansAvoidedTotal:             float64(rep.ReplansAvoided),
		obs.ChurnBackoffRetriesTotal:             float64(rep.Retries),
		obs.ChurnPausesTotal:                     float64(rep.Pauses),
		obs.ChurnStepsLostTotal:                  float64(rep.StepsLost),
		obs.SpotNoticesTotal:                     float64(rep.Notices),
		obs.SpotCleanDrainsTotal:                 float64(rep.CleanDrains),
		obs.SpotNoticesMissedTotal:               float64(rep.NoticesMissed),
		obs.SpotPrewarmReplansTotal:              float64(rep.PrewarmReplans),
		obs.ChurnRecovery + "_count":             n,
		obs.ChurnRecovery + `_bucket{le="+Inf"}`: n,
	}
	for kind, c := range rep.EventCounts {
		m[obs.ChurnEventsTotal+`{kind="`+kind+`"}`] += float64(c)
	}
	for rung, c := range rep.Ladder {
		m[obs.ChurnLadderTotal+`{rung="`+rung+`"}`] += float64(c)
	}
	for _, tr := range rep.Transitions {
		m[obs.ChurnTransitionsTotal+`{kind="`+string(tr.Kind)+`"}`]++
	}
	return m
}

// checkLedger requires every published aceso_elastic_*, aceso_churn_*
// and aceso_spot_* series of reg to equal want, and every wanted series
// to be published. The recovery histogram's finite buckets and sum are
// wall clock and only bounded by its count.
func checkLedger(t *testing.T, reg *obs.Registry, want map[string]float64) {
	t.Helper()
	raw, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for name, v := range got {
		if !strings.HasPrefix(name, "aceso_elastic_") && !strings.HasPrefix(name, "aceso_churn_") &&
			!strings.HasPrefix(name, "aceso_spot_") {
			continue
		}
		if _, ok := want[name]; !ok && strings.HasPrefix(name, obs.ChurnRecovery) {
			if v > want[obs.ChurnRecovery+"_count"] && !strings.HasSuffix(name, "_sum") {
				t.Errorf("%s = %v exceeds the histogram's count", name, v)
			}
			continue
		}
		if w, ok := want[name]; !ok || v != w {
			t.Errorf("%s = %v, Report says %v (present %v)", name, v, w, ok)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s not published", name)
		}
	}
}

// TestMetricsAreTheLedger: the metrics Supervise publishes are a view of
// its Report. One run exercises every churn kind, a covered and a
// missed notice and a simulated timeout; a second run published into
// the same registry sums; and the Report's JSON carries no Params.
func TestMetricsAreTheLedger(t *testing.T) {
	const iters = 12
	spec := ChurnSpec{Events: []ChurnEvent{
		{Iteration: 1, Kind: SlowNode, Device: 0, Scale: 0.95},
		{Iteration: 2, Kind: SlowNode, Device: 0, Scale: 1},
		{Iteration: 2, Kind: LinkDerate, Scale: 0.9},
		{Iteration: 3, Kind: LinkDerate, Scale: 1},
		{Iteration: 3, Kind: PreemptNotice, Device: 2, Notice: 2}, // covered: window ≥ cost
		{Iteration: 6, Kind: Readd, Device: 2},
		{Iteration: 7, Kind: PreemptNotice, Device: 1, Notice: 1}, // missed: window < cost
		{Iteration: 10, Kind: Readd, Device: 1},
	}}
	reg := obs.NewRegistry()
	want := map[string]float64{}
	for run := 0; run < 2; run++ {
		opt := superviseOpts(t)
		opt.Metrics = reg
		opt.CheckpointCost = 2
		opt.SimulateTimeouts = 1
		rep, err := Supervise(context.Background(), pp2tp2Job(t, iters), spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		for k := ChurnKind(0); k < numChurnKinds; k++ {
			if rep.EventCounts[k.String()] == 0 {
				t.Errorf("run %d applied no %s event: %v", run, k, rep.EventCounts)
			}
		}
		if rep.CleanDrains == 0 || rep.NoticesMissed == 0 || rep.Retries == 0 || rep.FaultsDetected == 0 ||
			rep.Restores == 0 || rep.PrewarmReplans == 0 || len(rep.Recoveries) == 0 {
			t.Fatalf("run %d exercised too little: %+v", run, rep)
		}
		for name, v := range ledgerSeries(rep) {
			want[name] += v
		}
		checkLedger(t, reg, want)

		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for name := range fields {
			if strings.EqualFold(name, "params") {
				t.Errorf("Report JSON carries %q", name)
			}
		}
		if _, ok := fields["transitions"]; !ok {
			t.Errorf("Report JSON lacks the decision log: keys %v", fields)
		}
	}
}
