package sim

import (
	"strings"
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

// TestLatenciesValidation pins the normalization contract: the zero value
// selects the defaults, a partially-specified set with Memory left at
// zero is rejected at construction (it used to wrap uint64 in the bus
// model), and any set with Memory >= 1 is accepted as given.
func TestLatenciesValidation(t *testing.T) {
	if lat, err := (Latencies{}).Normalize(); err != nil || lat != DefaultLatencies() {
		t.Fatalf("zero Latencies normalized to %+v, %v; want defaults", lat, err)
	}
	partial := Latencies{L1Hit: 1, L2Hit: 8, StoreBus: 2} // Memory missing
	if err := partial.Validate(); err == nil {
		t.Fatal("Memory=0 with other fields set validated")
	}
	cfg := paperConfig(placement.Modulo)
	cfg.Lat = partial
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an underflowing latency set")
	}
	if _, err := NewSystem(cfg, 2); err == nil {
		t.Fatal("NewSystem accepted an underflowing latency set")
	} else if !strings.Contains(err.Error(), "Memory") {
		t.Fatalf("unhelpful latency error: %v", err)
	}

	// Minimal legal memory latency: no wraparound, sane cycle counts.
	cfg.Lat = Latencies{L1Hit: 1, Memory: 1}
	sys, err := NewSystem(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder(0)
	for i := 0; i < 100; i++ {
		b.Load(uint64(i * 32))
	}
	res := sys.RunAll(compileAll(t, 32, b.Trace()))
	// 100 L1-cycle charges + 100 L2 misses at 1 memory cycle each bounds
	// the run far below any wrapped-uint64 absurdity.
	if res[0].Cycles == 0 || res[0].Cycles > 10000 {
		t.Fatalf("cycle count %d implausible for Memory=1", res[0].Cycles)
	}
}
