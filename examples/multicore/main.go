// Multicore example: the paper's 4-core platform shape. Each core has
// private RM L1 caches and its own partition of the L2 (so there is no
// storage interference), but all cores share the memory bus, which is
// arbitrated round-robin -- the time-composable multicore arrangement of
// the MBPTA literature the paper builds on (Section 2: "MBPTA has been
// evaluated on multicores comprising last-level caches and shared buses").
//
// The example sweeps hardware seeds for one benchmark alone and against
// three memory-hungry co-runners, showing the contention slowdown that
// the partitioned L2 bounds. The sweep fans out over an Engine's worker
// pool with randmod.ShardRuns -- the sharding primitive for custom
// execution contexts (here a 4-core sim.System instead of a single
// core) -- and Ctrl-C cancels it mid-sweep.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const seeds = 25
	subject, err := workload.ByName("canrdr01")
	if err != nil {
		log.Fatal(err)
	}
	hog := workload.Synthetic(160*1024, 8, 4) // streams through memory
	layout := workload.DefaultLayout()
	subjectTrace := subject.Build(layout)
	// The platform is the paper's, RM in the L1s; every core replays
	// compiled traces, shared read-only across the sweep's workers.
	spec := randmod.PaperPlatform(randmod.RM)
	subjectCT, err := trace.Compile(subjectTrace, spec.LineBytes)
	if err != nil {
		log.Fatal(err)
	}
	hogCT, err := trace.Compile(hog.Build(layout), spec.LineBytes)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// sweep collects the subject's cycle count over seeds-many hardware
	// seeds; each worker owns a private 4-core system, and every run
	// derives its seed from the run index, so the vector is bit-identical
	// for any pool size.
	pool := randmod.NewEngine().Pool()
	sweep := func(cts []*trace.Compiled) []float64 {
		times := make([]float64, seeds)
		err := randmod.ShardRuns(ctx, pool, 0, seeds,
			func() (*sim.System, error) { return sim.NewSystem(spec.Config(), 4) },
			func(sys *sim.System, lo, hi int) error {
				for run := lo; run < hi; run++ {
					sys.Reseed(prng.Derive(1, run))
					times[run] = float64(sys.RunAll(cts)[0].Cycles)
				}
				return nil
			})
		if err != nil {
			log.Fatal(err)
		}
		return times
	}

	solo := sweep([]*trace.Compiled{subjectCT, nil, nil, nil})
	contended := sweep([]*trace.Compiled{subjectCT, hogCT, hogCT, hogCT})

	fmt.Printf("subject workload: %s (%d accesses), %d hardware seeds\n",
		subject.Name, len(subjectTrace), seeds)
	fmt.Printf("co-runners:       3x synthetic 160KB streamers\n\n")
	fmt.Printf("solo      mean %10.0f  max %10.0f cycles\n", stats.Mean(solo), stats.Max(solo))
	fmt.Printf("contended mean %10.0f  max %10.0f cycles  (+%.1f%% from shared-bus interference)\n",
		stats.Mean(contended), stats.Max(contended),
		100*(stats.Mean(contended)/stats.Mean(solo)-1))
	fmt.Println("\nthe per-core L2 partition keeps cache *storage* free of interference;")
	fmt.Println("only bus bandwidth is shared, which MBPTA accounts for probabilistically.")
}
