package core

import (
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/security"
	"repro/internal/workload"
)

func TestWireRequestRoundTrip(t *testing.T) {
	in := strings.NewReader(`{"name":"demo","placement":"rm","workload":"tblook01","runs":80,"seed":7,"analyze":true}`)
	w, err := DecodeWireRequest(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := w.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Name != "demo" || req.Workload.Name != "tblook01" || req.Runs != 80 ||
		req.MasterSeed != 7 || !req.Analyze || req.Baseline {
		t.Fatalf("resolved request mismatch: %+v", req)
	}
	// "rm" selects the paper platform; "modulo" the deterministic baseline.
	if req.Spec != PaperPlatform(placement.RM) {
		t.Fatalf("rm resolved to %+v, want the paper RM platform", req.Spec)
	}
	det, err := WireRequest{Placement: "modulo", Workload: "tblook01", Runs: 1}.Request()
	if err != nil {
		t.Fatal(err)
	}
	if det.Spec != DeterministicPlatform() {
		t.Fatal("modulo did not resolve to the deterministic platform")
	}
}

func TestWireRequestUnknownFieldRejected(t *testing.T) {
	_, err := DecodeWireRequest(strings.NewReader(`{"workload":"tblook01","placement":"RM","runs":10,"sed":3}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestWireRequestValidation(t *testing.T) {
	bad := []WireRequest{
		{Placement: "nope", Workload: "tblook01", Runs: 10},
		{Placement: "RM", Workload: "nope", Runs: 10},
		{Placement: "RM", Workload: "tblook01", Runs: 0},
	}
	for _, w := range bad {
		if _, err := w.Normalize(); err == nil {
			t.Errorf("Normalize accepted %+v", w)
		}
		if _, err := w.Fingerprint(); err == nil {
			t.Errorf("Fingerprint accepted %+v", w)
		}
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	base := WireRequest{Placement: "RM", Workload: "tblook01", Runs: 100, Seed: 1}
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 32 {
		t.Fatalf("fingerprint %q is not 32 hex chars", fp)
	}

	// Spelling of the placement and the display name do not change content.
	same := []WireRequest{
		{Placement: "rm", Workload: "tblook01", Runs: 100, Seed: 1},
		{Name: "another label", Placement: "RM", Workload: "tblook01", Runs: 100, Seed: 1},
	}
	for _, w := range same {
		got, err := w.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != fp {
			t.Errorf("fingerprint of %+v = %s, want %s", w, got, fp)
		}
	}

	// Every content field perturbation must change the hash.
	l := wireLayoutFrom(workload.DefaultLayout())
	diff := []WireRequest{
		{Placement: "hRP", Workload: "tblook01", Runs: 100, Seed: 1},
		{Placement: "RM", Workload: "matrix01", Runs: 100, Seed: 1},
		{Placement: "RM", Workload: "tblook01", Runs: 101, Seed: 1},
		{Placement: "RM", Workload: "tblook01", Runs: 100, Seed: 2},
		{Placement: "RM", Workload: "tblook01", Runs: 100, Seed: 1, Baseline: true},
		{Placement: "RM", Workload: "tblook01", Runs: 100, Seed: 1, Analyze: true},
		{Placement: "RM", Workload: "tblook01", Runs: 100, Seed: 1, Layout: &l},
	}
	seen := map[string]string{fp: "base"}
	for _, w := range diff {
		got, err := w.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("fingerprint collision between %+v and %s", w, prev)
		}
		seen[got] = w.Placement + "/" + w.Workload
	}
}

func TestWireSecurityRoundTrip(t *testing.T) {
	in := strings.NewReader(`{"placement":"rm","runs":40,"seed":9,` +
		`"security":{"protocol":"prime+probe","replacement":"lru","probe_lines":256,"trials":8}}`)
	w, err := DecodeWireRequest(in)
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Canonical form: resolved spellings and defaults written back.
	if n.Security.Protocol != "primeprobe" || n.Security.Replacement != "LRU" {
		t.Fatalf("canonical security block %+v", n.Security)
	}
	req, err := w.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Security == nil || req.Security.Protocol != security.PrimeProbe ||
		req.Security.ProbeLines != 256 || req.Security.Trials != 8 {
		t.Fatalf("resolved security request %+v", req.Security)
	}
	if req.Kind() != KindSecurity {
		t.Fatalf("kind = %v", req.Kind())
	}
	if got := w.Label(); got != "security/prime+probe/rm/lru" {
		t.Fatalf("Label() = %q", got)
	}
}

func TestWireSecurityValidation(t *testing.T) {
	sec := func(s WireSecurity) WireRequest {
		return WireRequest{Placement: "RM", Runs: 10, Security: &s}
	}
	bad := []WireRequest{
		sec(WireSecurity{Protocol: "flushreload"}),
		sec(WireSecurity{Protocol: "eviction", Replacement: "clock"}),
		sec(WireSecurity{Protocol: "eviction", ProbeLines: 2}),
		sec(WireSecurity{Protocol: "eviction", ProbeStride: 33}),
		sec(WireSecurity{Protocol: "eviction", Trials: 8}),
		sec(WireSecurity{Protocol: "occupancy", VictimLines: -1}),
		{Placement: "RM", Runs: 10, Baseline: true, Security: &WireSecurity{Protocol: "eviction"}},
		{Placement: "RM", Runs: 10, Analyze: true, Security: &WireSecurity{Protocol: "eviction"}},
		// A victim workload is only meaningful for the occupancy channel.
		{Placement: "RM", Workload: "tblook01", Runs: 10, Security: &WireSecurity{Protocol: "eviction"}},
		{Placement: "RM", Workload: "nope", Runs: 10, Security: &WireSecurity{Protocol: "occupancy"}},
	}
	for _, w := range bad {
		if _, err := w.Normalize(); err == nil {
			t.Errorf("Normalize accepted %+v (security %+v)", w, w.Security)
		}
	}
	ok := WireRequest{Placement: "RM", Workload: "tblook01", Runs: 10,
		Security: &WireSecurity{Protocol: "occupancy"}}
	if _, err := ok.Normalize(); err != nil {
		t.Fatalf("occupancy victim workload rejected: %v", err)
	}
}

// TestWireSecurityFingerprint: spelling-insensitivity and default
// resolution keep equivalent security submissions on one fingerprint,
// while every content knob separates them.
func TestWireSecurityFingerprint(t *testing.T) {
	base := WireRequest{Placement: "RM", Runs: 50, Seed: 3,
		Security: &WireSecurity{Protocol: "eviction", Replacement: "Random", ProbeLines: 1024}}
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	same := WireRequest{Placement: "rm", Runs: 50, Seed: 3,
		Security: &WireSecurity{Protocol: "EVICTION-SET", ProbeLines: 1024}}
	if got, err := same.Fingerprint(); err != nil || got != fp {
		t.Fatalf("equivalent security spellings diverge: %q vs %q (%v)", got, fp, err)
	}
	// The default probe pool for eviction is 8*sets = 1024: leaving it
	// implicit is the same campaign.
	implicit := WireRequest{Placement: "RM", Runs: 50, Seed: 3,
		Security: &WireSecurity{Protocol: "eviction"}}
	if got, err := implicit.Fingerprint(); err != nil || got != fp {
		t.Fatalf("default-resolved security fingerprint diverges: %q vs %q (%v)", got, fp, err)
	}
	diff := []WireRequest{
		{Placement: "RM", Runs: 50, Seed: 3, Security: &WireSecurity{Protocol: "primeprobe", ProbeLines: 1024}},
		{Placement: "RM", Runs: 50, Seed: 3, Security: &WireSecurity{Protocol: "eviction", Replacement: "LRU", ProbeLines: 1024}},
		{Placement: "RM", Runs: 50, Seed: 3, Security: &WireSecurity{Protocol: "eviction", ProbeLines: 512}},
		{Placement: "RM", Runs: 50, Seed: 3, Security: &WireSecurity{Protocol: "eviction", ProbeLines: 1024, ProbeStride: 4096}},
		{Placement: "Modulo", Runs: 50, Seed: 3, Security: &WireSecurity{Protocol: "eviction", ProbeLines: 1024}},
		{Placement: "RM", Runs: 50, Seed: 3}, // no security block at all
	}
	diff[len(diff)-1].Workload = "tblook01"
	seen := map[string]bool{fp: true}
	for i, w := range diff {
		got, err := w.Fingerprint()
		if err != nil {
			t.Fatalf("diff %d: %v", i, err)
		}
		if seen[got] {
			t.Errorf("diff %d (%+v) collides", i, w.Security)
		}
		seen[got] = true
	}
}

// wireLayoutFrom converts a workload.Layout to its wire form.
func wireLayoutFrom(l workload.Layout) WireLayout {
	return WireLayout{
		Code: l.Code, Data: l.Data, Table: l.Table,
		Stack: l.Stack, Pool: l.Pool, Scatter: l.Scatter,
	}
}

func TestWireLayoutRoundTrip(t *testing.T) {
	l := workload.DefaultLayout()
	l.Scatter[3] = 4242
	if got := wireLayoutFrom(l).Layout(); got != l {
		t.Fatalf("layout round trip: got %+v want %+v", got, l)
	}
}

func TestWireRequestLabel(t *testing.T) {
	w := WireRequest{Workload: "tblook01", Placement: "Modulo", Baseline: true}
	if got := w.Label(); got != "tblook01/hwm" {
		t.Fatalf("Label() = %q, want tblook01/hwm", got)
	}
	w.Name = "custom"
	if got := w.Label(); got != "custom" {
		t.Fatalf("Label() = %q, want custom", got)
	}
}

// TestWireKeepTimes: the keep_times knob decodes, resolves to the
// TimesMode enum, and enters the fingerprint only when false — so every
// pre-existing fingerprint is unchanged and an explicit true is the same
// content as unset.
func TestWireKeepTimes(t *testing.T) {
	base := WireRequest{Placement: "RM", Workload: "tblook01", Runs: 100, Seed: 1}
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	tru, fls := true, false
	explicit := base
	explicit.KeepTimes = &tru
	if got, err := explicit.Fingerprint(); err != nil || got != fp {
		t.Fatalf("keep_times=true fingerprint %s (err %v), want %s (same as unset)", got, err, fp)
	}
	dropped := base
	dropped.KeepTimes = &fls
	got, err := dropped.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got == fp {
		t.Fatal("keep_times=false shares a fingerprint with keep — drop results would serve keep cache hits")
	}

	w, err := DecodeWireRequest(strings.NewReader(
		`{"placement":"rm","workload":"tblook01","runs":10,"seed":3,"keep_times":false}`))
	if err != nil {
		t.Fatal(err)
	}
	req, err := w.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.KeepTimes != TimesDrop {
		t.Fatalf("keep_times=false resolved to %v, want TimesDrop", req.KeepTimes)
	}
	if req2, err := base.Request(); err != nil || req2.KeepTimes != TimesKeep {
		t.Fatalf("unset keep_times resolved to %v (err %v), want TimesKeep", req2.KeepTimes, err)
	}

	n, err := explicit.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.KeepTimes != nil {
		t.Fatal("Normalize kept an explicit keep_times=true instead of canonicalizing to unset")
	}
}
