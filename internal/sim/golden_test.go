package sim

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
)

// streamTrace is a memory-hungry co-runner: a strided sweep over a
// private buffer larger than the L2 partition, every fourth access a
// store, so the shared bus sees both fills and dirty-victim writebacks.
func streamTrace(base uint64, n int) trace.Trace {
	b := trace.NewBuilder(n)
	for i := 0; i < n; i++ {
		addr := base + uint64(i*32)%(192*1024)
		if i%4 == 3 {
			b.Store(addr)
		} else {
			b.Load(addr)
		}
	}
	return b.Trace()
}

// formatResult renders one per-core Result as a golden-file line.
func formatResult(r Result) string {
	st := func(s cache.Stats) string {
		return fmt.Sprintf("%d/%d/%d/%d/%d/%d", s.Accesses, s.Hits, s.Misses, s.Evictions, s.Writebacks, s.Flushes)
	}
	return fmt.Sprintf("cycles=%d accesses=%d il1=%s dl1=%s l2=%s",
		r.Cycles, r.Accesses, st(r.IL1), st(r.DL1), st(r.L2))
}

// runAllGolden replays the multicore pin matrix: RM and Modulo L1
// placement × Random, LRU and PLRU replacement × DL1 write-allocate off
// and on, each solo (three idle peers) and against three streaming
// co-runners, over three seeds. Every per-core Result becomes one line.
func runAllGolden(t *testing.T) []string {
	subject := mixedTrace(0x601D, 6000)
	hogs := []trace.Trace{streamTrace(1<<26, 5000), streamTrace(2<<26, 5000), streamTrace(3<<26, 5000)}
	solo := compileAll(t, 32, subject, nil, nil, nil)
	contended := compileAll(t, 32, subject, hogs[0], hogs[1], hogs[2])
	var lines []string
	for _, pk := range []placement.Kind{placement.RM, placement.Modulo} {
		for _, rk := range []cache.ReplacementKind{cache.Random, cache.LRU, cache.PLRU} {
			for _, alloc := range []bool{false, true} {
				cfg := paperConfig(pk)
				cfg.IL1.Replacement, cfg.DL1.Replacement, cfg.L2.Replacement = rk, rk, rk
				cfg.DL1.AllocOnWrite = alloc
				sys, err := NewSystem(cfg, 4)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []string{"solo", "contended"} {
					cts := solo
					if mode == "contended" {
						cts = contended
					}
					for seed := 0; seed < 3; seed++ {
						sys.Reseed(prng.Derive(0x60, seed))
						for i, r := range sys.RunAll(cts) {
							lines = append(lines, fmt.Sprintf("%v/%v/alloc=%v/%s seed=%d core=%d %s",
								pk, rk, alloc, mode, seed, i, formatResult(r)))
						}
					}
				}
			}
		}
	}
	return lines
}

// TestRunAllGolden pins System.RunAll bit for bit — per-core cycles and
// every IL1/DL1/L2 counter — against testdata/runall_golden.txt, so any
// change to the multicore replay or the bus model shows up as a diff.
func TestRunAllGolden(t *testing.T) {
	f, err := os.Open("testdata/runall_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := runAllGolden(t)
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, RunAll produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
