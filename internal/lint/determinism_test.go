package lint

import "testing"

func TestDeterminism(t *testing.T) {
	runFixture(t, Determinism([]string{"determinism"}), "determinism")
}

// TestDeterminismScopedToConfiguredPackages: the same constructs in a
// package outside the result-affecting set produce no findings.
func TestDeterminismScopedToConfiguredPackages(t *testing.T) {
	diags := fixtureFindings(t, Determinism([]string{"determinism"}), "determinism/off")
	if len(diags) != 0 {
		t.Fatalf("non-result-affecting package got %d findings: %v", len(diags), diags)
	}
}

// TestDefaultDeterminismPackages pins the production configuration: the
// packages whose outputs feed campaign results, plus internal/obs and
// internal/client, so their clock reads stay audited exceptions.
func TestDefaultDeterminismPackages(t *testing.T) {
	want := map[string]bool{
		"repro/internal/cache":     true,
		"repro/internal/sim":       true,
		"repro/internal/core":      true,
		"repro/internal/placement": true,
		"repro/internal/trace":     true,
		"repro/internal/prng":      true,
		"repro/internal/evt":       true,
		"repro/internal/iid":       true,
		"repro/internal/stats":     true,
		"repro/internal/security":  true,
		"repro/internal/obs":       true,
		"repro/internal/client":    true,
	}
	got := DefaultDeterminismPackages()
	if len(got) != len(want) {
		t.Fatalf("got %d packages, want %d: %v", len(got), len(want), got)
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected result-affecting package %q", p)
		}
	}
}
