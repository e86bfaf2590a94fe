package core

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/security"
	"repro/internal/workload"
)

func secRequest(proto security.Protocol, runs int) Request {
	return Request{
		Runs: runs, MasterSeed: 0xA77AC4,
		Security: &security.Spec{
			Protocol:    proto,
			Placement:   placement.RM,
			Replacement: cache.Random,
			ProbeLines:  256,
		},
	}
}

// TestSecurityCampaignDeterministicAcrossWorkers pins the sharding
// contract for the attacker campaigns: every protocol yields bit-identical
// Times and aggregate Security results for worker counts {1, 4,
// GOMAXPROCS}, because each round depends only on its derived seed.
func TestSecurityCampaignDeterministicAcrossWorkers(t *testing.T) {
	for _, proto := range security.Protocols() {
		req := secRequest(proto, 24)
		var want Result
		for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			res, err := NewEngine(WithWorkers(workers)).Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", proto, workers, err)
			}
			if res.Security == nil {
				t.Fatalf("%s workers=%d: no security aggregate", proto, workers)
			}
			if len(res.Security.Curve) == 0 {
				t.Fatalf("%s workers=%d: empty success curve", proto, workers)
			}
			if i == 0 {
				want = res
				continue
			}
			if !reflect.DeepEqual(res.Times, want.Times) {
				t.Fatalf("%s workers=%d: Times differ from workers=1", proto, workers)
			}
			if !reflect.DeepEqual(res.Security, want.Security) {
				t.Fatalf("%s workers=%d: aggregate differs from workers=1:\n%+v\nvs\n%+v",
					proto, workers, res.Security, want.Security)
			}
		}
	}
}

// TestSecurityCampaignWithVictimWorkload runs the occupancy channel
// against a real compiled workload through the full Engine path.
func TestSecurityCampaignWithVictimWorkload(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	req := secRequest(security.Occupancy, 16)
	req.Workload = w
	a, err := NewEngine(WithWorkers(1)).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(WithWorkers(4)).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Security, b.Security) {
		t.Fatalf("victim-workload occupancy differs across worker counts:\n%+v\nvs\n%+v", a.Security, b.Security)
	}
	if a.Security.MeanMissActive <= a.Security.MeanMissIdle {
		t.Fatalf("victim left no occupancy signal: active %v <= idle %v",
			a.Security.MeanMissActive, a.Security.MeanMissIdle)
	}
}

// TestSecurityRequestRejections: the protocol flags and workload rules
// that do not compose with security campaigns fail loudly.
func TestSecurityRequestRejections(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithWorkers(1))

	base := secRequest(security.EvictionSet, 4)
	bad := base
	bad.Baseline = true
	if _, err := eng.Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("baseline+security accepted: %v", err)
	}
	bad = base
	bad.Analyze = true
	if _, err := eng.Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "MBPTA") {
		t.Fatalf("analyze+security accepted: %v", err)
	}
	bad = base
	bad.Workload = w
	if _, err := eng.Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("workload on non-occupancy protocol accepted: %v", err)
	}
	bad = base
	bad.Security = &security.Spec{Protocol: security.Protocol(42), Placement: placement.RM, Replacement: cache.Random}
	if _, err := eng.Run(context.Background(), bad); err == nil {
		t.Fatal("invalid protocol accepted")
	}
}

// TestRequestKind pins the campaign-family discriminator the service's
// discovery endpoint exposes.
func TestRequestKind(t *testing.T) {
	w, _ := workload.ByName("tblook01")
	if got := (Request{Workload: w}).Kind(); got != KindMBPTA || got.String() != "mbpta" {
		t.Fatalf("MBPTA kind = %v (%q)", got, got.String())
	}
	if got := (Request{Workload: w, Baseline: true}).Kind(); got != KindBaseline || got.String() != "baseline" {
		t.Fatalf("baseline kind = %v (%q)", got, got.String())
	}
	if got := secRequest(security.PrimeProbe, 1).Kind(); got != KindSecurity || got.String() != "security" {
		t.Fatalf("security kind = %v (%q)", got, got.String())
	}
	if got := KindNames(); !reflect.DeepEqual(got, []string{"mbpta", "baseline", "security"}) {
		t.Fatalf("KindNames() = %v", got)
	}
}

// TestSecurityCampaignEvents: security campaigns speak the same event
// protocol as timing campaigns (monotone Done, one RunCompleted per
// round, Cycles carrying the attacker access count).
func TestSecurityCampaignEvents(t *testing.T) {
	var events []Event
	eng := NewEngine(WithWorkers(1), WithEvents(func(ev Event) {
		events = append(events, ev)
	}))
	const runs = 6
	if _, err := eng.Run(context.Background(), secRequest(security.EvictionSet, runs)); err != nil {
		t.Fatal(err)
	}
	completed := 0
	lastDone := 0
	for _, ev := range events {
		if ev.Kind != RunCompleted {
			continue
		}
		completed++
		if ev.Done != lastDone+1 {
			t.Fatalf("Done jumped %d -> %d", lastDone, ev.Done)
		}
		lastDone = ev.Done
		if ev.Cycles <= 0 {
			t.Fatalf("round %d reported %v accesses", ev.Run, ev.Cycles)
		}
	}
	if completed != runs {
		t.Fatalf("%d RunCompleted events, want %d", completed, runs)
	}
}

// TestSecurityCampaignNoSnapshots: snapshots carry timing statistics, so
// a security campaign emits none, although its rounds stream through the
// same accumulators and frontier as a timing campaign's runs.
func TestSecurityCampaignNoSnapshots(t *testing.T) {
	var snaps, phases int
	eng := NewEngine(WithWorkers(2), WithEvents(func(ev Event) {
		switch ev.Kind {
		case SnapshotTaken:
			snaps++
		case PhaseDone:
			phases++
		}
	}))
	for _, proto := range security.Protocols() {
		if _, err := eng.Run(context.Background(), secRequest(proto, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if snaps != 0 {
		t.Fatalf("security campaigns emitted %d snapshots, want 0", snaps)
	}
	if phases != len(security.Protocols()) {
		t.Fatalf("%d phase events, want one replay phase per campaign", phases)
	}
}
