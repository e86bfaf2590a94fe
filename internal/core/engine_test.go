package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/workload"
)

// TestRunBatchMatchesSequential pins the acceptance criterion of the
// Engine redesign: a batch of campaigns (MBPTA RM, MBPTA hRP, and the
// HWM baseline) scheduled over one shared pool produces Times
// bit-identical to each campaign run alone on a one-worker engine, for
// worker counts {1, 4, GOMAXPROCS}.
func TestRunBatchMatchesSequential(t *testing.T) {
	w1, err := workload.ByName("puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.ByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 30
	reqs := []Request{
		{Spec: PaperPlatform(placement.RM), Workload: w1, Runs: runs, MasterSeed: 11},
		{Spec: PaperPlatform(placement.HRP), Workload: w2, Runs: runs, MasterSeed: 22},
		{Spec: DeterministicPlatform(), Workload: w1, Runs: 12, MasterSeed: 33, Baseline: true},
	}

	// Sequential reference: each request alone on a one-worker engine.
	var want [][]float64
	for _, req := range reqs {
		res, err := runWith(1, req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Times)
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		eng := NewEngine(WithWorkers(workers))
		results, err := eng.RunBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			if len(res.Times) != len(want[i]) {
				t.Fatalf("workers=%d req=%d: %d times, want %d", workers, i, len(res.Times), len(want[i]))
			}
			for run := range want[i] {
				if res.Times[run] != want[i][run] {
					t.Fatalf("workers=%d req=%d: Times[%d] = %v, sequential %v (not bit-identical)",
						workers, i, run, res.Times[run], want[i][run])
				}
			}
		}
	}
}

// TestEngineCancellation pins the other acceptance criterion: cancelling
// the context mid-campaign aborts a 1000-run campaign early, promptly,
// with an error wrapping context.Canceled and a partial result.
func TestEngineCancellation(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int64
	eng := NewEngine(WithWorkers(2), WithEvents(func(ev Event) {
		if ev.Kind == RunCompleted {
			completed.Add(1)
			if ev.Done == 3 {
				cancel() // abort from inside the stream, mid-campaign
			}
		}
	}))
	start := time.Now()
	res, err := eng.Run(ctx, Request{
		Spec: PaperPlatform(placement.RM), Workload: w, Runs: runs, MasterSeed: 5,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	done := completed.Load()
	if done >= runs {
		t.Fatalf("campaign ran to completion (%d runs) despite cancellation", done)
	}
	// Promptness: the two in-flight chunks stop at their next run
	// boundary. A full 1000-run campaign takes far longer than a few
	// runs, so a generous bound still proves the early abort.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if len(res.Times) != runs {
		t.Fatalf("partial result has %d slots, want %d", len(res.Times), runs)
	}
	nonzero := 0
	for _, x := range res.Times {
		if x > 0 {
			nonzero++
		}
	}
	if nonzero == 0 || nonzero >= runs {
		t.Fatalf("partial result has %d completed runs, want within (0, %d)", nonzero, runs)
	}
}

// TestEnginePreCancelled: an already-dead context never starts a run.
func TestEnginePreCancelled(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	eng := NewEngine(WithWorkers(2), WithEvents(func(ev Event) {
		if ev.Kind == RunCompleted {
			ran++
		}
	}))
	_, err = eng.Run(ctx, Request{Spec: PaperPlatform(placement.RM), Workload: w, Runs: 50, MasterSeed: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want wrapped context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d runs executed under a pre-cancelled context", ran)
	}
}

// TestEngineEvents checks the streaming contract: one start and one
// finish per campaign, exactly Runs run-completions with a monotone
// campaign-local Done counter, and serialized delivery (the sink mutates
// shared state without locks under -race).
func TestEngineEvents(t *testing.T) {
	w, err := workload.ByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 16
	type tally struct {
		started, finished, runsDone, lastDone int
		phases                                []string
	}
	tallies := map[string]*tally{}
	eng := NewEngine(WithWorkers(4), WithEvents(func(ev Event) {
		tl := tallies[ev.Campaign]
		if tl == nil {
			tl = &tally{}
			tallies[ev.Campaign] = tl
		}
		switch ev.Kind {
		case CampaignStarted:
			tl.started++
		case PhaseDone:
			tl.phases = append(tl.phases, fmt.Sprintf("%s@%d", ev.Phase, ev.Done))
		case RunCompleted:
			tl.runsDone++
			if ev.Done != tl.lastDone+1 {
				t.Errorf("%s: Done jumped %d -> %d", ev.Campaign, tl.lastDone, ev.Done)
			}
			tl.lastDone = ev.Done
			if ev.Cycles <= 0 {
				t.Errorf("%s run %d: no cycle count in event", ev.Campaign, ev.Run)
			}
		case CampaignFinished:
			tl.finished++
			if ev.Err != nil {
				t.Errorf("%s finished with error %v", ev.Campaign, ev.Err)
			}
			if ev.Done != runs {
				t.Errorf("%s finished with Done=%d, want %d", ev.Campaign, ev.Done, runs)
			}
		}
	}))
	reqs := []Request{
		{Name: "a", Spec: PaperPlatform(placement.RM), Workload: w, Runs: runs, MasterSeed: 1},
		{Name: "b", Spec: PaperPlatform(placement.HRP), Workload: w, Runs: runs, MasterSeed: 2},
		{Name: "c", Spec: DeterministicPlatform(), Workload: w, Runs: runs, MasterSeed: 3, Baseline: true},
	}
	if _, err := eng.RunBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if len(tallies) != 3 {
		t.Fatalf("events for %d campaigns, want 3", len(tallies))
	}
	for name, tl := range tallies {
		if tl.started != 1 || tl.finished != 1 || tl.runsDone != runs {
			t.Errorf("%s: started=%d finished=%d runs=%d, want 1/1/%d",
				name, tl.started, tl.finished, tl.runsDone, runs)
		}
		// Baseline campaigns compile once too, so every timing campaign
		// reports compile before its first run and replay after its last.
		if want := []string{"compile@0", fmt.Sprintf("replay@%d", runs)}; !reflect.DeepEqual(tl.phases, want) {
			t.Errorf("%s: phases %v, want %v", name, tl.phases, want)
		}
	}
}

// TestHWMCampaignLayoutOverride: the baseline perturbs the supplied base
// layout (different times than the default base) and stays bit-identical
// across worker counts -- the determinism contract of the new field.
func TestHWMCampaignLayoutOverride(t *testing.T) {
	w, err := workload.ByName("cacheb01")
	if err != nil {
		t.Fatal(err)
	}
	// Sub-line shifts change which lines the objects straddle, so the
	// baseline's miss counts (and times) must move.
	base := workload.DefaultLayout()
	base.Data += 20
	base.Stack += 12
	base.Table += 4
	run := func(layout *workload.Layout, workers int) []float64 {
		res, err := runWith(workers, Request{
			Spec: DeterministicPlatform(), Workload: w,
			Runs: 10, MasterSeed: 9, Layout: layout, Baseline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Times
	}
	seq, par := run(&base, 1), run(&base, 4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("Times[%d]: sequential %v vs 4 workers %v", i, seq[i], par[i])
		}
	}
	def := run(nil, 1)
	same := true
	for i := range seq {
		if seq[i] != def[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("layout override produced the same baseline as the default layout")
	}
}

// TestEngineRunMatchesLegacy: an analyzed Engine.Run on a 3-worker pool
// reproduces the legacy buffered flow byte-for-byte — a sequential
// campaign's times fed to the buffered Analyze (same times, same
// per-level counters, same pWCET).
func TestEngineRunMatchesLegacy(t *testing.T) {
	w, err := workload.ByName("ttsprk01")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Spec: PaperPlatform(placement.RM), Workload: w, Runs: 60, MasterSeed: 4}
	seqRes, err := runWith(1, req)
	if err != nil {
		t.Fatal(err)
	}
	seqAn, err := Analyze(seqRes.Times)
	if err != nil {
		t.Fatal(err)
	}
	req.Analyze = true
	res, err := runWith(3, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqRes.Times {
		if res.Times[i] != seqRes.Times[i] {
			t.Fatalf("Times[%d] differ: engine %v sequential %v", i, res.Times[i], seqRes.Times[i])
		}
	}
	if res.Levels != seqRes.Levels {
		t.Errorf("Levels differ: engine %+v sequential %+v", res.Levels, seqRes.Levels)
	}
	if res.Analysis.PWCET15 != seqAn.PWCET15 {
		t.Errorf("pWCET@1e-15 differ: engine %v buffered %v", res.Analysis.PWCET15, seqAn.PWCET15)
	}
}

// TestZeroValueEngine: the zero value is ready to use -- accessors lazily
// allocate the default pool instead of panicking.
func TestZeroValueEngine(t *testing.T) {
	var eng Engine
	if eng.Workers() < 1 {
		t.Fatalf("Workers() = %d on zero value", eng.Workers())
	}
	if eng.Pool() == nil {
		t.Fatal("Pool() nil on zero value")
	}
	w, err := workload.ByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), Request{
		Spec: PaperPlatform(placement.RM), Workload: w, Runs: 5, MasterSeed: 1,
	})
	if err != nil || len(res.Times) != 5 {
		t.Fatalf("zero-value Engine run: %v, %d times", err, len(res.Times))
	}
}
