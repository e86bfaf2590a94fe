package randmod

import (
	"context"
	"errors"
	"strings"
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

func TestPublicSurface(t *testing.T) {
	if len(Workloads()) != 14 { // 11 EEMBC + 3 synthetic
		t.Fatalf("Workloads() returned %d entries", len(Workloads()))
	}
	if _, err := WorkloadByName("not-a-workload"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	w := SyntheticWorkload(8*1024, 2, 4)
	if len(w.Build(Layout{})) == 0 {
		t.Fatal("synthetic workload built an empty trace")
	}
	if CutoffHigh >= CutoffLow {
		t.Fatal("cutoff constants inverted")
	}
}

func TestPublicPlatformSpecs(t *testing.T) {
	p := PaperPlatform(RM)
	if _, err := p.Build(); err != nil {
		t.Fatal(err)
	}
	d := DeterministicPlatform()
	if d.IL1.Placement != Modulo || d.IL1.Replacement != LRU {
		t.Fatal("deterministic platform wrong")
	}
	// The write-arrangement override is part of the public surface.
	p.DL1 = CacheSetup{Placement: RM, Replacement: Random, Write: WriteBackAlloc}
	if _, err := p.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicHardwareModels(t *testing.T) {
	asic := HardwareASIC(128)
	if asic.AreaRatio < 5 {
		t.Fatalf("ASIC area ratio %.1f, expected ~10x regime", asic.AreaRatio)
	}
	fpga := HardwareFPGA()
	if fpga.RM.FMHz != fpga.Baseline.FMHz {
		t.Fatal("RM must not degrade FPGA frequency")
	}
	if fpga.HRP.FMHz >= fpga.Baseline.FMHz {
		t.Fatal("hRP must degrade FPGA frequency")
	}
}

func TestPublicGumbelSurface(t *testing.T) {
	g := Gumbel{Mu: 10, Beta: 2}
	if q := g.QuantileSurvival(1e-15); q <= g.Mu {
		t.Fatalf("deep quantile %.1f not in the tail", q)
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

func TestPublicWireCodec(t *testing.T) {
	w, err := DecodeWireRequest(strings.NewReader(
		`{"workload":"rspeed01","placement":"rm","runs":50,"seed":11}`))
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := w.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	w.Name = "relabeled"
	w.Placement = "RM"
	fp2, err := w.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint not canonical: %s vs %s", fp1, fp2)
	}
	req, err := w.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Workload.Name != "rspeed01" || req.Runs != 50 || req.MasterSeed != 11 {
		t.Fatalf("resolved request mismatch: %+v", req)
	}
	if got := WireLayoutFrom(DefaultLayout()).Layout(); got != DefaultLayout() {
		t.Fatal("WireLayout round trip lost fields")
	}
}
