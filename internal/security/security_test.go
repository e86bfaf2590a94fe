package security

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// waySizeBytes is the paper's cache-segment size: candidates strided by
// it all land in the same set under modulo placement.
const waySizeBytes = CacheSets * CacheLineBytes

func round(t *testing.T, spec Spec, seed uint64) RoundOut {
	t.Helper()
	e, err := NewEngine(spec, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var out RoundOut
	e.Round(seed, &out)
	return out
}

// TestEvictionKATModuloStrided pins the analytic expectation on the
// deterministic design point: with candidates strided by the way size,
// every candidate maps to the target's modulo set, so group-testing
// reduction succeeds with probability exactly 1 at every pool size >=
// ways+1 and the reduced set has exactly `ways` members.
func TestEvictionKATModuloStrided(t *testing.T) {
	spec := Spec{
		Protocol:    EvictionSet,
		Placement:   placement.Modulo,
		Replacement: cache.LRU,
		ProbeLines:  64,
		ProbeStride: waySizeBytes,
	}
	e, err := NewEngine(spec, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		var out RoundOut
		e.Round(seed, &out)
		for j := range e.efforts {
			if out.Succ[j] != 1 {
				t.Fatalf("seed %d effort %d: success %v, want 1", seed, e.efforts[j], out.Succ[j])
			}
			if out.Acc[j] == 0 {
				t.Fatalf("seed %d effort %d: no accesses recorded", seed, e.efforts[j])
			}
		}
		if len(e.cur) != CacheWays {
			t.Fatalf("seed %d: reduced set has %d lines, want %d", seed, len(e.cur), CacheWays)
		}
		// The reduced set must actually be a same-set eviction set: every
		// member indexes to the target's set under modulo placement.
		want := e.plan[e.target]
		for _, id := range e.cur {
			if e.plan[id] != want {
				t.Fatalf("seed %d: eviction-set member maps to set %d, target set %d", seed, e.plan[id], want)
			}
		}
	}
}

// TestEvictionKATModuloLinear pins the complementary expectation: with
// line-stride candidates and a pool smaller than the set count, at most
// one candidate shares the target's modulo set, so construction fails
// with probability exactly 0 at every effort.
func TestEvictionKATModuloLinear(t *testing.T) {
	spec := Spec{
		Protocol:    EvictionSet,
		Placement:   placement.Modulo,
		Replacement: cache.LRU,
		ProbeLines:  64,
		ProbeStride: CacheLineBytes,
	}
	for seed := uint64(1); seed <= 10; seed++ {
		out := round(t, spec, seed)
		for j := 0; j < 4; j++ {
			if out.Succ[j] != 0 {
				t.Fatalf("seed %d effort slot %d: success %v, want 0", seed, j, out.Succ[j])
			}
		}
	}
}

// TestPrimeProbeKATModuloLRU: on modulo+LRU with a same-set candidate
// pool the channel is perfect -- the eviction set always builds and every
// trial's probe misses exactly when the victim ran.
func TestPrimeProbeKATModuloLRU(t *testing.T) {
	spec := Spec{
		Protocol:    PrimeProbe,
		Placement:   placement.Modulo,
		Replacement: cache.LRU,
		ProbeLines:  64,
		ProbeStride: waySizeBytes,
		Trials:      8,
	}
	outs := make([]RoundOut, 40)
	e, err := NewEngine(spec, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := range outs {
		e.Round(uint64(i+1), &outs[i])
		if !outs[i].Constructed {
			t.Fatalf("round %d: eviction set not constructed", i)
		}
	}
	norm, _ := spec.Normalized()
	res := Aggregate(norm, outs)
	for _, p := range res.Curve {
		if p.Success != 1 {
			t.Fatalf("effort %d: success %v, want 1 (curve %+v)", p.Effort, p.Success, res.Curve)
		}
	}
	if res.Constructed != 1 {
		t.Fatalf("constructed fraction %v, want 1", res.Constructed)
	}
}

// TestOccupancyKATModuloLRU: attacker and victim footprints that each
// exactly fill the cache make a perfect occupancy channel on modulo+LRU
// (misses are 512 when the victim ran, 0 when idle), so best-threshold
// accuracy is 1 at every prefix and the channel carries ~1 bit per round.
func TestOccupancyKATModuloLRU(t *testing.T) {
	spec := Spec{
		Protocol:    Occupancy,
		Placement:   placement.Modulo,
		Replacement: cache.LRU,
		ProbeLines:  CacheSets * CacheWays,
		ProbeStride: CacheLineBytes,
		VictimLines: CacheSets * CacheWays,
	}
	e, err := NewEngine(spec, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	outs := make([]RoundOut, 64)
	for i := range outs {
		e.Round(uint64(i+1), &outs[i])
		want := uint32(0)
		if outs[i].Bit == 1 {
			want = uint32(CacheSets * CacheWays)
		}
		if outs[i].Miss != want {
			t.Fatalf("round %d: bit %d, misses %d, want %d", i, outs[i].Bit, outs[i].Miss, want)
		}
	}
	norm, _ := spec.Normalized()
	res := Aggregate(norm, outs)
	for _, p := range res.Curve {
		if p.Success != 1 {
			t.Fatalf("prefix %d: accuracy %v, want 1", p.Effort, p.Success)
		}
	}
	if res.MeanMissActive != float64(CacheSets*CacheWays) || res.MeanMissIdle != 0 {
		t.Fatalf("class means %v/%v, want %d/0", res.MeanMissActive, res.MeanMissIdle, CacheSets*CacheWays)
	}
	if res.Capacity < 0.9 {
		t.Fatalf("capacity %v bits, want ~1", res.Capacity)
	}
}

// TestVictimFromTraceIsUnfolded checks that the occupancy victim keeps
// one op per access, in trace order, for every workload: both streams
// share the attacked cache, so the compiled format's same-line read
// folding (exact only for split L1s) must not reach it. The expected
// numbering is built directly: instruction lines, then data lines, each
// in first-touch order.
func TestVictimFromTraceIsUnfolded(t *testing.T) {
	if _, err := VictimFromTrace(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	for _, w := range workload.All() {
		if testing.Short() && w.Name == "synth160k" {
			continue
		}
		tr := w.Build(workload.DefaultLayout())
		v, err := VictimFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Ops) != len(tr) {
			t.Fatalf("%s: %d victim ops for %d accesses", w.Name, len(v.Ops), len(tr))
		}
		var ilines, dlines []uint64
		iid, did := map[uint64]int{}, map[uint64]int{}
		stream := make([]int, len(tr)) // per access: ID within its stream
		for i, a := range tr {
			la := a.Addr / CacheLineBytes
			ids, lines := did, &dlines
			if a.Kind == trace.Fetch {
				ids, lines = iid, &ilines
			}
			id, ok := ids[la]
			if !ok {
				id = len(*lines)
				ids[la] = id
				*lines = append(*lines, la)
			}
			stream[i] = id
		}
		if want := append(append([]uint64{}, ilines...), dlines...); !reflect.DeepEqual(v.Lines, want) {
			t.Fatalf("%s: victim has %d lines, want %d instruction then %d data lines in first-touch order",
				w.Name, len(v.Lines), len(ilines), len(dlines))
		}
		for i, a := range tr {
			want := stream[i]
			if a.Kind != trace.Fetch {
				want += len(ilines)
			}
			if int(v.Ops[i]) != want {
				t.Fatalf("%s: access %d (%v %#x) numbered %d, want %d", w.Name, i, a.Kind, a.Addr, v.Ops[i], want)
			}
		}
	}
}

// TestOccupancyWorkloadVictim runs the channel against a compiled
// workload victim and checks the samples are sane and deterministic.
func TestOccupancyWorkloadVictim(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	vic, err := VictimFromTrace(w.Build(workload.DefaultLayout()))
	if err != nil {
		t.Fatal(err)
	}
	if len(vic.Lines) == 0 || len(vic.Ops) == 0 {
		t.Fatalf("empty victim: %d lines, %d ops", len(vic.Lines), len(vic.Ops))
	}
	spec, err := Spec{
		Protocol:    Occupancy,
		Placement:   placement.RM,
		Replacement: cache.Random,
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewEngine(spec, vic)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(spec, vic)
	if err != nil {
		t.Fatal(err)
	}
	var active bool
	for seed := uint64(1); seed <= 16; seed++ {
		var a, b RoundOut
		e1.Round(seed, &a)
		e2.Round(seed, &b)
		if a != b {
			t.Fatalf("seed %d: rounds differ across engines: %+v vs %+v", seed, a, b)
		}
		if a.Bit == 1 && a.Miss > 0 {
			active = true
		}
	}
	if !active {
		t.Fatal("victim never left an occupancy footprint")
	}
}

// TestRoundDeterminism: Round is a pure function of the seed for every
// protocol on a randomized placement with random replacement (the
// noisiest configuration).
func TestRoundDeterminism(t *testing.T) {
	for _, proto := range Protocols() {
		spec := Spec{
			Protocol:    proto,
			Placement:   placement.RM,
			Replacement: cache.Random,
			ProbeLines:  256,
		}
		if proto == PrimeProbe {
			spec.Trials = 8
		}
		e1, err := NewEngine(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		e2, err := NewEngine(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		for seed := uint64(1); seed <= 8; seed++ {
			var a, b RoundOut
			e1.Round(seed, &a)
			// Re-running the same seed on a used engine must also agree:
			// no state may leak across rounds.
			e2.Round(seed^0xABCDEF, &b)
			e2.Round(seed, &b)
			if a != b {
				t.Fatalf("%s seed %d: %+v vs %+v", proto, seed, a, b)
			}
		}
	}
}

func TestParseProtocol(t *testing.T) {
	cases := map[string]Protocol{
		"eviction": EvictionSet, "EVICTION-SET": EvictionSet, "evict": EvictionSet,
		"occupancy": Occupancy, "occ": Occupancy,
		"primeprobe": PrimeProbe, "Prime+Probe": PrimeProbe, "pp": PrimeProbe,
	}
	for in, want := range cases {
		got, err := ParseProtocol(in)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseProtocol("flushreload"); err == nil {
		t.Error("ParseProtocol accepted an unknown protocol")
	}
}

func TestNormalizedValidation(t *testing.T) {
	base := Spec{Protocol: EvictionSet, Placement: placement.RM, Replacement: cache.Random}
	norm, err := base.Normalized()
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if norm.ProbeLines != 8*CacheSets {
		t.Fatalf("default probe pool %d, want %d", norm.ProbeLines, 8*CacheSets)
	}
	bad := []Spec{
		{Protocol: Protocol(99), Placement: placement.RM, Replacement: cache.Random},
		{Protocol: EvictionSet, Placement: placement.RM, Replacement: cache.ReplacementKind(99)},
		{Protocol: EvictionSet, Placement: placement.RM, Replacement: cache.Random, ProbeLines: 2},
		{Protocol: EvictionSet, Placement: placement.RM, Replacement: cache.Random, ProbeLines: MaxProbeLines + 1},
		{Protocol: EvictionSet, Placement: placement.RM, Replacement: cache.Random, ProbeStride: 33},
		{Protocol: EvictionSet, Placement: placement.RM, Replacement: cache.Random, Trials: 4},
		{Protocol: PrimeProbe, Placement: placement.RM, Replacement: cache.Random, Trials: MaxTrials + 1},
		{Protocol: EvictionSet, Placement: placement.RM, Replacement: cache.Random, VictimLines: 8},
		{Protocol: Occupancy, Placement: placement.RM, Replacement: cache.Random, VictimLines: MaxVictimLines + 1},
	}
	for i, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestLadder(t *testing.T) {
	if got := ladder(64, 5); !reflect.DeepEqual(got, []int{8, 16, 32, 64}) {
		t.Fatalf("ladder(64,5) = %v", got)
	}
	if got := ladder(16, 1); !reflect.DeepEqual(got, []int{2, 4, 8, 16}) {
		t.Fatalf("ladder(16,1) = %v", got)
	}
	if got := ladder(6, 5); !reflect.DeepEqual(got, []int{5, 6}) {
		t.Fatalf("ladder(6,5) = %v", got)
	}
	if got := ladder(4, 5); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("ladder(4,5) = %v", got)
	}
}
