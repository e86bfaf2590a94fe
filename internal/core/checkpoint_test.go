package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/security"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ckptRequests returns one request per campaign kind, all with Analyze
// where it applies, sized so campaigns afford several chunks per worker,
// and last a multicore MBPTA request against a small co-runner.
func ckptRequests(t testing.TB) []Request {
	t.Helper()
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	hog := workload.Synthetic(16*1024, 1, 4)
	return []Request{
		{Spec: PaperPlatform(placement.RM), Workload: w, Runs: 120, MasterSeed: 0xC4A1, Analyze: true},
		{Spec: DeterministicPlatform(), Workload: w, Runs: 60, MasterSeed: 0xBA5E, Baseline: true},
		{Runs: 48, MasterSeed: 0x5EC0, Security: &security.Spec{
			Protocol:    security.PrimeProbe,
			Placement:   placement.RM,
			Replacement: cache.Random,
			ProbeLines:  128,
		}},
		{Name: "multicore", Spec: PaperPlatform(placement.RM), Workload: w, Runs: 60, MasterSeed: 0x3C0,
			CoRunners: []workload.Workload{hog, {}, hog}, Analyze: true},
	}
}

// interruptAt runs req until a checkpoint at or past cutEvery fires, then
// cancels, and returns the captured checkpoint round-tripped through the
// wire codec. Returns nil if the campaign completed before capturing.
func interruptAt(t testing.TB, req Request, workers, cutEvery int) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var captured atomic.Pointer[Checkpoint]
	req.CheckpointEvery = cutEvery
	req.OnCheckpoint = func(cp *Checkpoint) {
		if captured.CompareAndSwap(nil, cp) {
			cancel()
		}
	}
	_, err := NewEngine(WithWorkers(workers)).Run(ctx, req)
	cp := captured.Load()
	if cp == nil {
		return nil
	}
	if cp.Frontier < req.Runs && !errors.Is(err, context.Canceled) && err != nil {
		t.Fatalf("interrupted campaign failed with a non-cancellation error: %v", err)
	}
	dec, derr := DecodeCheckpoint(cp.Encode())
	if derr != nil {
		t.Fatalf("checkpoint round trip at frontier %d: %v", cp.Frontier, derr)
	}
	if !reflect.DeepEqual(dec.Levels, cp.Levels) || dec.Frontier != cp.Frontier {
		t.Fatalf("decoded checkpoint differs from captured one")
	}
	return dec
}

// sameResult asserts the bit-identity contract between an uninterrupted
// and a resumed campaign: Times, Summary counts/extremes/sketch, levels,
// miss ratios, analysis and security aggregates all match exactly. The
// Welford variance terms inside Moments are grouping-dependent by
// documented contract and excluded.
func sameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Times, want.Times) {
		for i := range want.Times {
			if got.Times[i] != want.Times[i] {
				t.Fatalf("%s: Times[%d] = %v, want %v", label, i, got.Times[i], want.Times[i])
			}
		}
		t.Fatalf("%s: Times differ (len %d vs %d)", label, len(got.Times), len(want.Times))
	}
	wm, gm := want.Summary.Moments, got.Summary.Moments
	if gm.N != wm.N || gm.Sum != wm.Sum || gm.Min != wm.Min || gm.Max != wm.Max {
		t.Fatalf("%s: Summary.Moments differ: got N=%d Sum=%v Min=%v Max=%v, want N=%d Sum=%v Min=%v Max=%v",
			label, gm.N, gm.Sum, gm.Min, gm.Max, wm.N, wm.Sum, wm.Min, wm.Max)
	}
	if !reflect.DeepEqual(got.Summary.Sketch, want.Summary.Sketch) {
		t.Fatalf("%s: Summary.Sketch differs", label)
	}
	if !reflect.DeepEqual(got.Levels, want.Levels) {
		t.Fatalf("%s: Levels differ:\n%+v\nvs\n%+v", label, got.Levels, want.Levels)
	}
	if got.IL1Miss != want.IL1Miss || got.DL1Miss != want.DL1Miss || got.L2Miss != want.L2Miss {
		t.Fatalf("%s: miss ratios differ", label)
	}
	if !reflect.DeepEqual(got.Analysis, want.Analysis) {
		t.Fatalf("%s: Analysis differs:\n%+v\nvs\n%+v", label, got.Analysis, want.Analysis)
	}
	if !reflect.DeepEqual(got.Security, want.Security) {
		t.Fatalf("%s: Security aggregate differs", label)
	}
}

// TestResumeBitIdentical is the tentpole differential test: for every
// campaign kind, interrupt at pseudo-random frontiers under one worker
// count and resume under another; the stitched result must be
// bit-identical to the uninterrupted campaign for workers {1, 4,
// GOMAXPROCS} on both sides.
func TestResumeBitIdentical(t *testing.T) {
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, req := range ckptRequests(t) {
		req := req
		kind := req.Kind().String()
		want, err := NewEngine(WithWorkers(1)).Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s reference: %v", kind, err)
		}
		// Pseudo-random interruption frontiers, deterministic per kind.
		g := prng.New(0xD1FF ^ req.MasterSeed)
		for i, wInterrupt := range workerSet {
			wResume := workerSet[(i+1)%len(workerSet)]
			cut := 1 + g.Intn(req.Runs-1)
			cp := interruptAt(t, req, wInterrupt, cut)
			if cp == nil {
				t.Fatalf("%s: campaign finished before checkpoint at stride %d", kind, cut)
			}
			if cp.Frontier <= 0 || cp.Frontier > req.Runs {
				t.Fatalf("%s: checkpoint frontier %d out of range", kind, cp.Frontier)
			}
			resumed := req
			resumed.Resume = cp
			got, err := NewEngine(WithWorkers(wResume)).Run(context.Background(), resumed)
			if err != nil {
				t.Fatalf("%s resume at %d (workers %d->%d): %v", kind, cp.Frontier, wInterrupt, wResume, err)
			}
			label := kind + "/" + req.Name
			sameResult(t, label, want, got)
		}
	}
}

// TestResumeDropsTimes pins resume under keep_times:false — the
// checkpoint carries no measurement vector and the resumed campaign's
// Summary still matches the uninterrupted one exactly.
func TestResumeDropsTimes(t *testing.T) {
	reqs := ckptRequests(t)
	req := reqs[0]
	req.Analyze = false // analysis needs the window either way; keep this case minimal
	req.KeepTimes = TimesDrop
	want, err := NewEngine(WithWorkers(2)).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cp := interruptAt(t, req, 2, req.Runs/3)
	if cp == nil {
		t.Skip("campaign completed before checkpoint")
	}
	if cp.Times != nil {
		t.Fatalf("keep_times:false checkpoint carries %d times", len(cp.Times))
	}
	req.Resume = cp
	got, err := NewEngine(WithWorkers(3)).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Times != nil {
		t.Fatal("resumed keep_times:false campaign returned Times")
	}
	sameResult(t, "mbpta/keep_times:false", want, got)
}

// TestCheckpointReplayOption pins WithCheckpointReplay: the self-checking
// interrupt+resume execution mode returns results bit-identical to plain
// runs, for every campaign kind.
func TestCheckpointReplayOption(t *testing.T) {
	for _, req := range ckptRequests(t) {
		kind := req.Kind().String()
		want, err := NewEngine(WithWorkers(2)).Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s plain: %v", kind, err)
		}
		got, err := NewEngine(WithWorkers(2), WithCheckpointReplay()).Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s replay: %v", kind, err)
		}
		sameResult(t, kind+"/replay", want, got)
	}
}

// TestCheckpointCodecCorruption: every single-byte corruption of an
// encoded checkpoint must fail decode with *CorruptCheckpointError —
// never a panic, never a silent partial restore.
func TestCheckpointCodecCorruption(t *testing.T) {
	cp := interruptAt(t, ckptRequests(t)[0], 2, 30)
	if cp == nil {
		t.Skip("campaign completed before checkpoint")
	}
	blob := cp.Encode()
	if _, err := DecodeCheckpoint(blob); err != nil {
		t.Fatalf("pristine blob failed decode: %v", err)
	}
	var corrupt *CorruptCheckpointError
	// Truncations at every prefix length.
	for n := 0; n < len(blob); n += 7 {
		if _, err := DecodeCheckpoint(blob[:n]); !errors.As(err, &corrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want CorruptCheckpointError", n, err)
		}
	}
	// Single-bit flips across the blob (stride keeps the test fast).
	for i := 0; i < len(blob); i += 11 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := DecodeCheckpoint(mut); !errors.As(err, &corrupt) {
			t.Fatalf("bit flip at %d: err = %v, want CorruptCheckpointError", i, err)
		}
	}
}

// TestPreviousLayoutCheckpointRejected: a blob under the previous magic,
// RMCKPT1, fails decode with *CorruptCheckpointError even when its
// checksum is intact. That layout wrote a sixth, always-zero counter per
// cache level, so the decoder must refuse it at the magic, and a store
// quarantines it and recomputes instead of misreading its counters.
func TestPreviousLayoutCheckpointRejected(t *testing.T) {
	cp := interruptAt(t, ckptRequests(t)[0], 2, 30)
	if cp == nil {
		t.Skip("campaign completed before checkpoint")
	}
	blob := cp.Encode()
	body := append([]byte("RMCKPT1\n"), blob[len(checkpointMagic):len(blob)-sha256.Size]...)
	sum := sha256.Sum256(body)
	var corrupt *CorruptCheckpointError
	if _, err := DecodeCheckpoint(append(body, sum[:]...)); !errors.As(err, &corrupt) {
		t.Fatalf("RMCKPT1 blob: decode err = %v, want *CorruptCheckpointError", err)
	}
}

// TestRoundsOnlySecurityCheckpointRejected: a security checkpoint that
// carries its per-round outputs but not the streaming accumulators (the
// layout written before security campaigns ran through the shared
// campaign loop) fails decode with *CorruptCheckpointError, so a store
// quarantines it and recomputes instead of resuming from it. The same
// frontier captured by the campaign loop decodes and resumes.
func TestRoundsOnlySecurityCheckpointRejected(t *testing.T) {
	req := ckptRequests(t)[2]
	cp := interruptAt(t, req, 2, req.Runs/3)
	if cp == nil {
		t.Fatal("campaign finished before checkpoint")
	}
	if len(cp.Rounds) != cp.Frontier || cp.Maxima == nil || len(cp.Times) != cp.Frontier {
		t.Fatalf("security checkpoint lacks its accumulators: %d rounds, %d times, maxima %v for frontier %d",
			len(cp.Rounds), len(cp.Times), cp.Maxima != nil, cp.Frontier)
	}
	old := &Checkpoint{
		Kind: KindSecurity, MasterSeed: cp.MasterSeed, Runs: cp.Runs,
		KeepTimes: cp.KeepTimes, Frontier: cp.Frontier, Rounds: cp.Rounds,
	}
	var corrupt *CorruptCheckpointError
	if _, err := DecodeCheckpoint(old.Encode()); !errors.As(err, &corrupt) {
		t.Fatalf("rounds-only checkpoint: decode err = %v, want *CorruptCheckpointError", err)
	}
	if err := old.Validate(req); !errors.As(err, &corrupt) {
		t.Fatalf("rounds-only checkpoint: Validate err = %v, want *CorruptCheckpointError", err)
	}
	// Rounds on a timing checkpoint are damage too.
	timing := interruptAt(t, ckptRequests(t)[0], 2, 30)
	timing.Rounds = cp.Rounds[:timing.Frontier%len(cp.Rounds)+1]
	if _, err := DecodeCheckpoint(timing.Encode()); !errors.As(err, &corrupt) {
		t.Fatalf("timing checkpoint with rounds: decode err = %v, want *CorruptCheckpointError", err)
	}
}

// TestResumeMismatchRejected: a checkpoint attached to the wrong request
// fails before the first run with *ResumeMismatchError naming the field.
func TestResumeMismatchRejected(t *testing.T) {
	reqs := ckptRequests(t)
	cp := interruptAt(t, reqs[0], 2, 30)
	if cp == nil {
		t.Skip("campaign completed before checkpoint")
	}
	cases := []struct {
		name  string
		field string
		mut   func(r *Request)
	}{
		{"seed", "master_seed", func(r *Request) { r.MasterSeed++ }},
		{"runs", "runs", func(r *Request) { r.Runs += 10 }},
		{"keep_times", "keep_times", func(r *Request) { r.KeepTimes = TimesDrop }},
		{"kind", "kind", func(r *Request) { r.Baseline = true }},
	}
	for _, tc := range cases {
		req := reqs[0]
		tc.mut(&req)
		req.Resume = cp
		_, err := NewEngine(WithWorkers(1)).Run(context.Background(), req)
		var mm *ResumeMismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("%s: err = %v, want ResumeMismatchError", tc.name, err)
		}
		if mm.Field != tc.field {
			t.Fatalf("%s: mismatch field %q, want %q", tc.name, mm.Field, tc.field)
		}
	}
}

// TestShardPanicRecovered pins panic containment: a panicking workload
// fails its campaign cleanly with a typed *PanicError, and the shared
// pool releases every slot and runs the next campaign. The workload
// builds once per campaign, under a pool slot, for every campaign kind
// that has one: MBPTA, baseline (the relocatable compile), the
// occupancy protocol's victim and a multicore campaign's co-runner.
func TestShardPanicRecovered(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	bomb := workload.Workload{
		Name: "panic-bomb",
		Build: func(layout workload.Layout) trace.Trace {
			panic("synthetic workload panic")
		},
	}
	occupancy := secRequest(security.Occupancy, 16)
	occupancy.Workload = bomb
	reqs := map[string]Request{
		"mbpta":     {Spec: PaperPlatform(placement.RM), Workload: bomb, Runs: 16, MasterSeed: 7},
		"baseline":  {Spec: DeterministicPlatform(), Workload: bomb, Runs: 16, MasterSeed: 7, Baseline: true},
		"occupancy": occupancy,
		"co-runner": {Spec: PaperPlatform(placement.RM), Workload: w, Runs: 16, MasterSeed: 7,
			CoRunners: []workload.Workload{bomb}},
	}
	eng := NewEngine(WithWorkers(2))
	for name, req := range reqs {
		_, err = eng.Run(context.Background(), req)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *PanicError", name, err)
		}
		if pe.Value != "synthetic workload panic" || pe.Stack == "" {
			t.Fatalf("%s: PanicError carries value %v, stack len %d", name, pe.Value, len(pe.Stack))
		}
		if eng.Pool().InUse() != 0 {
			t.Fatalf("%s: pool leaked %d slots", name, eng.Pool().InUse())
		}
	}
	// The pool must have released every slot: a normal campaign on the
	// same engine completes.
	res, err := eng.Run(context.Background(), Request{
		Spec: PaperPlatform(placement.RM), Workload: w, Runs: 8, MasterSeed: 7,
	})
	if err != nil {
		t.Fatalf("campaign after panic: %v", err)
	}
	if res.Summary.Moments.N != 8 {
		t.Fatalf("campaign after panic covered %d runs", res.Summary.Moments.N)
	}
	if eng.Pool().InUse() != 0 {
		t.Fatalf("pool leaked %d slots", eng.Pool().InUse())
	}
}
