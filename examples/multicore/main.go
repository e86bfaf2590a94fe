// Multicore example: the paper's 4-core platform shape. Each core has
// private RM L1 caches and its own partition of the L2 (so there is no
// storage interference), but all cores share the memory bus, which is
// arbitrated round-robin -- the time-composable multicore arrangement of
// the MBPTA literature the paper builds on (Section 2: "MBPTA has been
// evaluated on multicores comprising last-level caches and shared buses").
//
// The example runs one benchmark over the same hardware seeds alone and
// against three memory-hungry co-runners, showing the contention slowdown
// that the partitioned L2 bounds. Both are ordinary Engine campaigns
// (randmod.Request's CoRunners put the subject on core 0 of a 4-core
// system), batched over one worker pool, and Ctrl-C cancels them
// mid-flight.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro"
)

func main() {
	const seeds = 25
	subject, err := randmod.WorkloadByName("canrdr01")
	if err != nil {
		log.Fatal(err)
	}
	hog := randmod.SyntheticWorkload(160*1024, 8, 4) // streams through memory

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Solo leaves the three other cores idle (a Workload with no Build);
	// every run derives its seed from the run index, so both campaigns
	// draw the same seeds and their times are bit-identical for any pool
	// size.
	campaign := func(co randmod.Workload) randmod.Request {
		return randmod.Request{
			Spec:       randmod.PaperPlatform(randmod.RM),
			Workload:   subject,
			CoRunners:  []randmod.Workload{co, co, co},
			Runs:       seeds,
			MasterSeed: 1,
		}
	}
	res, err := randmod.NewEngine().RunBatch(ctx, []randmod.Request{campaign(randmod.Workload{}), campaign(hog)})
	if err != nil {
		log.Fatal(err)
	}
	solo, contended := res[0], res[1]

	fmt.Printf("subject workload: %s (%d accesses), %d hardware seeds\n",
		subject.Name, solo.Trace.Accesses, seeds)
	fmt.Printf("co-runners:       3x synthetic 160KB streamers\n\n")
	fmt.Printf("solo      mean %10.0f  max %10.0f cycles\n", solo.Mean(), solo.HWM())
	fmt.Printf("contended mean %10.0f  max %10.0f cycles  (+%.1f%% from shared-bus interference)\n",
		contended.Mean(), contended.HWM(),
		100*(contended.Mean()/solo.Mean()-1))
	fmt.Println("\nthe per-core L2 partition keeps cache *storage* free of interference;")
	fmt.Println("only bus bandwidth is shared, which MBPTA accounts for probabilistically.")
}
