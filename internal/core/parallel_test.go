package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workerCounts are the pool sizes the determinism tests sweep: the
// sequential path, a two-way split, the GOMAXPROCS default, and a pool
// wider than the host (and, for short campaigns, wider than the run count,
// exercising the workers>runs clamp).
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0), 2*runtime.GOMAXPROCS(0) + 3}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	w, err := workload.ByName("puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for i, workers := range workerCounts() {
		res, err := runWith(workers, Request{
			Spec: PaperPlatform(placement.RM), Workload: w,
			Runs: 50, MasterSeed: 1234,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if len(res.Times) != len(ref.Times) {
			t.Fatalf("workers=%d: %d times, want %d", workers, len(res.Times), len(ref.Times))
		}
		for run := range ref.Times {
			if res.Times[run] != ref.Times[run] {
				t.Fatalf("workers=%d: Times[%d] = %v, sequential %v (not bit-identical)",
					workers, run, res.Times[run], ref.Times[run])
			}
		}
		if res.Levels != ref.Levels {
			t.Errorf("workers=%d: Levels %+v, sequential %+v", workers, res.Levels, ref.Levels)
		}
		if res.IL1Miss != ref.IL1Miss || res.DL1Miss != ref.DL1Miss || res.L2Miss != ref.L2Miss {
			t.Errorf("workers=%d: miss ratios (%v %v %v) differ from sequential (%v %v %v)",
				workers, res.IL1Miss, res.DL1Miss, res.L2Miss,
				ref.IL1Miss, ref.DL1Miss, ref.L2Miss)
		}
		if res.Trace != ref.Trace {
			t.Errorf("workers=%d: trace accounting %+v, sequential %+v", workers, res.Trace, ref.Trace)
		}
	}
}

func TestHWMCampaignDeterministicAcrossWorkers(t *testing.T) {
	w, err := workload.ByName("ttsprk01")
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for i, workers := range workerCounts() {
		res, err := runWith(workers, Request{
			Spec: DeterministicPlatform(), Workload: w,
			Runs: 20, MasterSeed: 1234, Baseline: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		for run := range ref.Times {
			if res.Times[run] != ref.Times[run] {
				t.Fatalf("workers=%d: Times[%d] = %v, sequential %v (not bit-identical)",
					workers, run, res.Times[run], ref.Times[run])
			}
		}
		if res.HWM() != ref.HWM() || res.Mean() != ref.Mean() {
			t.Errorf("workers=%d: hwm/mean (%v, %v) differ from sequential (%v, %v)",
				workers, res.HWM(), res.Mean(), ref.HWM(), ref.Mean())
		}
	}
}

func TestHWMCampaignDeterministicWithRandomizedSpec(t *testing.T) {
	// With a randomized platform the replacement PRNG must not carry state
	// across runs, or worker counts would diverge.
	w, err := workload.ByName("cacheb01")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []float64 {
		res, err := runWith(workers, Request{
			Spec: PaperPlatform(placement.RM), Workload: w,
			Runs: 12, MasterSeed: 77, Baseline: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Times
	}
	seq, par := run(1), run(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("Times[%d]: sequential %v vs 4 workers %v", i, seq[i], par[i])
		}
	}
}

func TestHWMCampaignValidation(t *testing.T) {
	spec := DeterministicPlatform()
	if _, err := runWith(0, Request{Spec: spec, Runs: 5, Baseline: true}); err == nil {
		t.Fatal("missing workload accepted")
	}
	empty := workload.Workload{
		Name:  "empty",
		Build: func(workload.Layout) trace.Trace { return nil },
	}
	if _, err := runWith(0, Request{Spec: spec, Workload: empty, Runs: 5, Baseline: true}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestCampaignRejectsBadSpec(t *testing.T) {
	w, err := workload.ByName("puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	bad := PaperPlatform(placement.RM)
	bad.L1Ways = 3 // sets no longer a power of two
	if _, err := runWith(4, Request{Spec: bad, Workload: w, Runs: 8}); err == nil {
		t.Fatal("invalid platform spec accepted by the worker pool")
	}
	if _, err := runWith(4, Request{Spec: bad, Workload: w, Runs: 8, Baseline: true}); err == nil {
		t.Fatal("invalid platform spec accepted by the hwm worker pool")
	}
}

func TestNormWorkers(t *testing.T) {
	cases := []struct{ workers, runs, want int }{
		{1, 10, 1},
		{4, 10, 4},
		{8, 3, 3},                             // never more workers than runs
		{0, 5, min(runtime.GOMAXPROCS(0), 5)}, // default: GOMAXPROCS
		{-2, 5, min(runtime.GOMAXPROCS(0), 5)},
	}
	for _, c := range cases {
		if got := normWorkers(c.workers, c.runs); got != c.want {
			t.Errorf("normWorkers(%d, %d) = %d, want %d", c.workers, c.runs, got, c.want)
		}
	}
}

// TestWorkerPoolUnderRace gives the race detector a wide pool over a short
// campaign (go test -race ./internal/core/ exercises it).
func TestWorkerPoolUnderRace(t *testing.T) {
	w, err := workload.ByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWith(8, Request{
		Spec: PaperPlatform(placement.RM), Workload: w,
		Runs: 16, MasterSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 16 {
		t.Fatalf("got %d times", len(res.Times))
	}
	for i, x := range res.Times {
		if x <= 0 {
			t.Fatalf("Times[%d] = %v: a shard left its slot unwritten", i, x)
		}
	}
}

func TestShardRunsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	err := shardRuns(ctx, NewPool(2), 0, 10000,
		func() (int, error) { return 0, nil },
		func(_ int, lo, hi int) error {
			for run := lo; run < hi; run++ {
				if done.Add(1) == 5 {
					cancel()
				}
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := done.Load(); n >= 10000 {
		t.Fatalf("sweep ran to completion (%d runs) despite cancellation", n)
	}
}

func TestShardRunsPoolShared(t *testing.T) {
	// Two sweeps over one 2-slot pool: concurrency never exceeds the
	// pool capacity, and both sweeps fill every run-indexed slot. A run
	// executes only while its shard holds a slot, so counting in-flight
	// do calls bounds the observed concurrency by the capacity.
	pool := NewPool(2)
	var inFlight, peak atomic.Int64
	sweep := func(out []int32) error {
		return shardRuns(context.Background(), pool, 0, len(out),
			func() (int, error) { return 0, nil },
			func(_ int, lo, hi int) error {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				for run := lo; run < hi; run++ {
					out[run] = int32(run + 1)
				}
				inFlight.Add(-1)
				return nil
			})
	}
	a := make([]int32, 64)
	b := make([]int32, 64)
	errc := make(chan error, 2)
	go func() { errc <- sweep(a) }()
	go func() { errc <- sweep(b) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := range a {
		if a[i] == 0 || b[i] == 0 {
			t.Fatalf("slot %d left unwritten (a=%d b=%d)", i, a[i], b[i])
		}
	}
	if peak.Load() > 2 {
		t.Fatalf("pool admitted %d concurrent runs, capacity 2", peak.Load())
	}
}
