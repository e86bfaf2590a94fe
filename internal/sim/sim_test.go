package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/trace"
)

// paperConfig builds the paper's single-core platform with the given L1
// placement kind.
func paperConfig(l1 placement.Kind) Config {
	mk := func(name string, size int, pk placement.Kind, w cache.WritePolicy, repl cache.ReplacementKind) cache.Config {
		return cache.Config{
			Name: name, SizeBytes: size, Ways: 4, LineBytes: 32,
			Placement: pk, Replacement: repl, Write: w,
		}
	}
	repl := cache.Random
	if l1 == placement.Modulo {
		repl = cache.LRU
	}
	return Config{
		IL1: mk("IL1", 16*1024, l1, cache.WriteThrough, repl),
		DL1: mk("DL1", 16*1024, l1, cache.WriteThrough, repl),
		L2:  mk("L2", 128*1024, placement.HRP, cache.WriteBack, cache.Random),
	}
}

// TestDefaultLatencies pins the ordering the timing model assumes and a
// bus slot of at least one cycle.
func TestDefaultLatencies(t *testing.T) {
	if l1Hit == 0 || l2Hit <= l1Hit || memLatency <= l2Hit || busService == 0 {
		t.Fatalf("latency ordering broken: l1 %d, l2 %d, memory %d, bus slot %d",
			l1Hit, l2Hit, memLatency, busService)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := paperConfig(placement.Modulo)
	cfg.IL1.SizeBytes = 100 // invalid
	if _, err := New(cfg); err == nil {
		t.Fatal("bad IL1 accepted")
	}
}

func TestRunCyclesAllHitsAfterWarmup(t *testing.T) {
	c, err := New(paperConfig(placement.Modulo))
	if err != nil {
		t.Fatal(err)
	}
	// A loop touching 8 code lines and 8 data lines fits trivially.
	b := trace.NewBuilder(0)
	for it := 0; it < 100; it++ {
		for l := 0; l < 8; l++ {
			b.Fetch(uint64(0x1000 + l*32))
			b.Load(uint64(0x8000 + l*32))
		}
	}
	tr := b.Trace()
	c.Flush()
	r := c.Run(tr)
	// Warmup: 16 line fills; everything else hits at 1 cycle.
	warm := uint64(16) * (l2Hit + memLatency)
	want := uint64(len(tr))*l1Hit + warm
	if r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
	if r.IL1.Misses != 8 || r.DL1.Misses != 8 {
		t.Fatalf("L1 misses = %d/%d, want 8/8", r.IL1.Misses, r.DL1.Misses)
	}
}

func TestRunStoreAccounting(t *testing.T) {
	c, err := New(paperConfig(placement.Modulo))
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder(0)
	b.Store(0x2000) // L2 write-allocate miss
	b.Store(0x2000) // L2 hit
	r := c.Run(b.Trace())
	want := uint64(2*(l1Hit+storeBus) + memLatency)
	if r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
	if r.DL1.Misses != 2 { // WT no-allocate: both stores miss DL1
		t.Fatalf("DL1 misses = %d", r.DL1.Misses)
	}
	if r.L2.Hits != 1 || r.L2.Misses != 1 {
		t.Fatalf("L2 = %+v", r.L2)
	}
}

func TestRunResultPerRunStats(t *testing.T) {
	c, _ := New(paperConfig(placement.Modulo))
	b := trace.NewBuilder(0)
	for i := 0; i < 10; i++ {
		b.Load(uint64(i) * 32)
	}
	tr := b.Trace()
	r1 := c.Run(tr)
	r2 := c.Run(tr) // second run: all hits
	if r1.DL1.Misses != 10 {
		t.Fatalf("first run misses = %d", r1.DL1.Misses)
	}
	if r2.DL1.Misses != 0 || r2.DL1.Hits != 10 {
		t.Fatalf("second run stats not per-run: %+v", r2.DL1)
	}
	if r2.Cycles >= r1.Cycles {
		t.Fatal("warm run not faster than cold run")
	}
}

func TestReseedReproducibility(t *testing.T) {
	run := func() uint64 {
		c, err := New(paperConfig(placement.RM))
		if err != nil {
			t.Fatal(err)
		}
		b := trace.NewBuilder(0)
		for i := 0; i < 5000; i++ {
			b.Load(uint64(i*32) % (64 * 1024))
		}
		c.Reseed(1234)
		return c.Run(b.Trace()).Cycles
	}
	if run() != run() {
		t.Fatal("same seed produced different cycle counts")
	}
}

func TestReseedChangesTiming(t *testing.T) {
	c, err := New(paperConfig(placement.RM))
	if err != nil {
		t.Fatal(err)
	}
	// A footprint with L1 pressure so placement matters: 24KB strided.
	b := trace.NewBuilder(0)
	for s := 0; s < 30; s++ {
		for i := 0; i < 768; i++ {
			b.Load(uint64(i * 32))
		}
	}
	tr := b.Trace()
	seen := make(map[uint64]bool)
	for seed := uint64(0); seed < 12; seed++ {
		c.Reseed(seed)
		seen[c.Run(tr).Cycles] = true
	}
	if len(seen) < 2 {
		t.Fatal("execution time constant across seeds on a pressured footprint")
	}
}

func TestSystemRoundRobinBusContention(t *testing.T) {
	sys, err := NewSystem(paperConfig(placement.RM), 4)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reseed(7)
	// Each core streams through a large private buffer: lots of L2 misses
	// that must share the bus.
	mkTrace := func(base uint64) trace.Trace {
		b := trace.NewBuilder(0)
		for i := 0; i < 20000; i++ {
			b.Load(base + uint64(i*32)%(256*1024))
		}
		return b.Trace()
	}
	traces := []trace.Trace{mkTrace(0), mkTrace(1 << 24), mkTrace(2 << 24), mkTrace(3 << 24)}
	contended := sys.RunAll(compileAll(t, 32, traces...))

	solo, err := NewSystem(paperConfig(placement.RM), 4)
	if err != nil {
		t.Fatal(err)
	}
	solo.Reseed(7)
	soloRes := solo.RunAll(compileAll(t, 32, mkTrace(0), nil, nil, nil))

	if contended[0].Cycles <= soloRes[0].Cycles {
		t.Fatalf("no bus interference: contended %d <= solo %d",
			contended[0].Cycles, soloRes[0].Cycles)
	}
	for i, r := range contended {
		if r.Accesses != 20000 {
			t.Fatalf("core %d retired %d accesses", i, r.Accesses)
		}
		if r.Cycles == 0 {
			t.Fatalf("core %d has zero cycles", i)
		}
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(paperConfig(placement.RM), 0); err == nil {
		t.Fatal("zero-core system accepted")
	}
	sys, _ := NewSystem(paperConfig(placement.RM), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("trace count mismatch not detected")
		}
	}()
	sys.RunAll([]*trace.Compiled{nil})
}

func TestSystemDeterministic(t *testing.T) {
	run := func() uint64 {
		sys, err := NewSystem(paperConfig(placement.RM), 2)
		if err != nil {
			t.Fatal(err)
		}
		sys.Reseed(99)
		b := trace.NewBuilder(0)
		for i := 0; i < 5000; i++ {
			b.Load(uint64(i*32) % (64 * 1024))
		}
		res := sys.RunAll(compileAll(t, 32, b.Trace(), b.Trace()))
		return res[0].Cycles + res[1].Cycles
	}
	if run() != run() {
		t.Fatal("multicore run not reproducible")
	}
}
