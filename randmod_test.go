package randmod

import (
	"context"
	"errors"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	w, err := WorkloadByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine().Run(context.Background(), Request{
		Spec:       PaperPlatform(RM),
		Workload:   w,
		Runs:       300,
		MasterSeed: 2,
		Analyze:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	an := *res.Analysis
	if len(res.Times) != 300 {
		t.Fatalf("collected %d measurements", len(res.Times))
	}
	// The admissibility tests run at the 5% level, so a borderline
	// rejection on one fixed campaign is within spec; the test guards
	// against gross dependence, not against 1-in-20 tail events.
	if an.WW.Stat > 3 {
		t.Errorf("strong WW dependence signal: %.2f", an.WW.Stat)
	}
	if an.KS.P < 0.005 {
		t.Errorf("strong KS non-stationarity signal: p=%.4f", an.KS.P)
	}
	if an.PWCET15 <= res.HWM() {
		t.Errorf("pWCET %.0f not above hwm %.0f", an.PWCET15, res.HWM())
	}
}

func TestPublicEngineSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	w, err := WorkloadByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	var runsSeen int
	eng := NewEngine(WithWorkers(4), WithEvents(func(ev Event) {
		if ev.Kind == RunCompleted {
			runsSeen++
		}
	}))
	if eng.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", eng.Workers())
	}
	// One batch mixing an analyzed MBPTA campaign and an HWM baseline
	// request.
	hwm := Request{Spec: DeterministicPlatform(), Workload: w, Runs: 10, MasterSeed: 2, Baseline: true}
	results, err := eng.RunBatch(context.Background(), []Request{
		{Spec: PaperPlatform(RM), Workload: w, Runs: 50, MasterSeed: 2, Analyze: true},
		hwm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Times) != 50 {
		t.Fatalf("MBPTA member ran %d times", len(results[0].Times))
	}
	if results[0].Analysis == nil || results[0].Analysis.PWCET15 <= results[0].HWM() {
		t.Fatal("batch member missing a sane analysis")
	}
	if len(results[1].Times) != 10 {
		t.Fatalf("baseline member ran %d times", len(results[1].Times))
	}
	if runsSeen != 60 {
		t.Fatalf("event stream saw %d runs, want 60", runsSeen)
	}
	// Cancellation is part of the public contract.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, Request{Spec: PaperPlatform(RM), Workload: w, Runs: 50, MasterSeed: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want wrapped context.Canceled", err)
	}
}
