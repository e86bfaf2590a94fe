package sim

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
)

// TestRunAllStatsArePerCall is the regression test for the cumulative-
// stats bug: RunAll used to copy each cache's lifetime counters into its
// Results, so a second RunAll on the same System (or any prior
// single-core run) double-counted accesses and misses.
func TestRunAllStatsArePerCall(t *testing.T) {
	sys, err := NewSystem(paperConfig(placement.RM), 2)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reseed(5)
	b := trace.NewBuilder(0)
	for i := 0; i < 4000; i++ {
		b.Load(uint64(i*32) % (64 * 1024))
	}
	cts := compileAll(t, 32, b.Trace(), b.Trace())

	first := sys.RunAll(cts)
	second := sys.RunAll(cts)
	for i := range first {
		if got := second[i].DL1.Accesses; got != first[i].DL1.Accesses {
			t.Fatalf("core %d: second RunAll reports %d DL1 accesses, first %d (cumulative, not per-call)",
				i, got, first[i].DL1.Accesses)
		}
		if second[i].DL1.Accesses != 4000 {
			t.Fatalf("core %d: DL1 accesses = %d, want 4000", i, second[i].DL1.Accesses)
		}
		// The warm second pass must show the hits it earned, not the cold
		// pass's misses again.
		if second[i].DL1.Misses >= first[i].DL1.Misses+second[i].DL1.Hits {
			t.Fatalf("core %d: second-call misses %d look cumulative", i, second[i].DL1.Misses)
		}
	}

	// Interleaving a direct RunCompiled must not leak into RunAll either.
	sys.cores[0].RunCompiled(cts[0])
	third := sys.RunAll(cts)
	if third[0].DL1.Accesses != 4000 {
		t.Fatalf("RunAll after RunCompiled reports %d DL1 accesses, want 4000", third[0].DL1.Accesses)
	}
}
