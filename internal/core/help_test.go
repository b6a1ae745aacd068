package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// estimateLog is an estimate tracer that logs what it sees: each first
// estimate's key and iteration-time bits, in order.
type estimateLog struct {
	t    *testing.T
	seen []uint64
}

func (l *estimateLog) OnIteration(obs.IterationEvent) {}

func (l *estimateLog) OnEstimate(cfg *config.Config, e *perfmodel.Estimate) {
	if cfg == nil {
		l.t.Error("OnEstimate without a config")
		return
	}
	l.seen = append(l.seen, cfg.Key(), math.Float64bits(e.IterTime))
}

// TestHelpersMatchSerial holds a trial split in two halves (help.go) to
// the serial trial. With every multiHop batch published and every trial
// of it run as a pure half and a commit (trialHooks.help), each
// determinism row is the committed one at GOMAXPROCS 2 and 4. On the
// pinned search's deepest depth, searched alone so that one owner
// commits while the other workers help, the keys counted explored and
// the first estimates an estimate tracer sees (with their configs'
// keys) come in the serial order, and the auditor finds every estimate
// sound.
func TestHelpersMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("136 searches")
	}
	defer func() { trialHooks.help = false }()
	want := committedRows(t)
	trialHooks.help = true
	for i, c := range determinismCases(t) {
		for _, procs := range []int{2, 4} {
			c.row.GOMAXPROCS = procs
			got, _ := pinnedSearch(t, c.g, c.row, c.cl, c.opts)
			got.GOMAXPROCS = want[i].GOMAXPROCS
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("row %d helped at GOMAXPROCS %d:\n got %+v\nwant %+v", i, procs, got, want[i])
			}
		}
	}

	g, err := model.GPT3("2.6B")
	if err != nil {
		t.Fatal(err)
	}
	type run struct{ explored, estimated []uint64 }
	pinned := func(procs int, help bool) (r run) {
		storeHooks.explored = func(k uint64) { r.explored = append(r.explored, k) }
		defer func() { storeHooks.explored = nil }()
		trialHooks.help = help
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		opts := Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: 1, StageCounts: []int{16}}
		if _, err := Search(g, hardware.DGX1V100(2), opts); err != nil {
			t.Fatal(err)
		}
		log, audit := &estimateLog{t: t}, obs.NewAuditor()
		opts.Tracer = obs.MultiTracer(log, audit)
		traced := r.explored
		r.explored = nil
		if _, err := Search(g, hardware.DGX1V100(2), opts); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.explored, traced) {
			t.Errorf("GOMAXPROCS %d, help %v: a tracer changed the keys explored", procs, help)
		}
		if audit.Checked() == 0 || audit.Err() != nil {
			t.Errorf("GOMAXPROCS %d, help %v: the auditor checked %d estimates: %v", procs, help, audit.Checked(), audit.Err())
		}
		r.estimated = log.seen
		return r
	}
	serial := pinned(1, false)
	if len(serial.explored) == 0 {
		t.Fatal("the pinned search explored nothing")
	}
	for _, procs := range []int{1, 2, 4} {
		got := pinned(procs, true)
		if !slices.Equal(got.explored, serial.explored) {
			t.Errorf("helped at GOMAXPROCS %d: %d keys explored, serially %d, or in another order",
				procs, len(got.explored), len(serial.explored))
		}
		if !slices.Equal(got.estimated, serial.estimated) {
			t.Errorf("helped at GOMAXPROCS %d: the tracer saw %d first estimates, serially %d, or others or in another order",
				procs, len(got.estimated)/2, len(serial.estimated)/2)
		}
	}
}

// TestHelperPanicReachesOwner: a pure half that panics on a helper is
// not lost. The helper leaves the panic on the move's trail and stops
// helping (run reports false), and the owner raises it when it comes to
// commit the move, where the task's recovery reports it.
func TestHelperPanicReachesOwner(t *testing.T) {
	s, cfg := deepRecomputeStart(t, nil)
	s.crew = &crew{ss: &[]store{{}}}
	trialHooks.help = true
	defer func() { trialHooks.help = false }()
	tr := node(s, cfg)
	tr.moves = append(tr.moves[:0], move{kind: toggleFlag, stage: len(cfg.Stages)}) // no such stage
	j := s.publish(tr, 1)
	if j == nil {
		t.Fatal("a forced batch was not published")
	}
	j.attached.Add(1)
	if s.crew.run(j, new(store)) {
		t.Fatal("run reported success for a pure half that panicked")
	}
	func() {
		defer func() {
			if v := recover(); v == nil || v != j.out[0].fault {
				t.Errorf("the owner raised %v, want the helper's panic %v", v, j.out[0].fault)
			}
		}()
		s.next(tr, j, 0)
	}()
	s.retract(j, 1)
}
