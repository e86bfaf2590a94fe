package randmod_test

import (
	"context"
	"fmt"
	"strings"

	randmod "repro"
)

// The end-to-end MBPTA flow: run a benchmark on the Random Modulo
// platform with a fresh hardware seed per run, then read off the pWCET.
func Example() {
	w, err := randmod.WorkloadByName("puwmod01")
	if err != nil {
		panic(err)
	}
	res, err := randmod.NewEngine().Run(context.Background(), randmod.Request{
		Spec:       randmod.PaperPlatform(randmod.RM),
		Workload:   w,
		Runs:       100,
		MasterSeed: 7,
		Analyze:    true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("runs:", len(res.Times))
	fmt.Println("pWCET@1e-15 above hwm:", res.Analysis.PWCET15 > res.HWM())
	// Output:
	// runs: 100
	// pWCET@1e-15 above hwm: true
}

// Hardware cost of the two random-placement modules at the paper's
// 128-set design point (Table 1's ASIC half).
func Example_hardwareCost() {
	rep := randmod.HardwareASIC(128)
	fmt.Println("RM area is much smaller:", rep.AreaRatio > 5)
	fmt.Println("RM is faster:", rep.DelayGain > 0)
	// Output:
	// RM area is much smaller: true
	// RM is faster: true
}

// Comparing placements on the same workload: the deterministic platform
// gives one number per layout, the randomized platform gives a
// distribution per seed.
func Example_placementComparison() {
	w := randmod.SyntheticWorkload(4*1024, 10, 4)
	det, err := randmod.NewEngine().Run(context.Background(), randmod.Request{
		Spec:       randmod.DeterministicPlatform(),
		Workload:   w,
		Runs:       3,
		MasterSeed: 1,
	})
	if err != nil {
		panic(err)
	}
	// All deterministic runs of the same layout are identical.
	fmt.Println("deterministic is constant:", det.Times[0] == det.Times[1] && det.Times[1] == det.Times[2])
	// Output:
	// deterministic is constant: true
}

// The Engine API: one shared worker pool running a batch of campaigns
// with deterministic results; cancellation and progress events ride on
// the same calls.
func Example_engineBatch() {
	eng := randmod.NewEngine(randmod.WithWorkers(4))
	w := randmod.SyntheticWorkload(8*1024, 5, 4)
	results, err := eng.RunBatch(context.Background(), []randmod.Request{
		{Name: "rm", Spec: randmod.PaperPlatform(randmod.RM), Workload: w, Runs: 50, MasterSeed: 3},
		{Name: "hrp", Spec: randmod.PaperPlatform(randmod.HRP), Workload: w, Runs: 50, MasterSeed: 3},
	})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s: %d runs\n", r.Name, len(r.Times))
	}
	// Output:
	// rm: 50 runs
	// hrp: 50 runs
}

// A multicore campaign: the workload runs on core 0 of the paper's
// shared-bus platform, against one co-runner per other core (a Workload
// with no Build leaves its core idle). Both campaigns draw the same
// hardware seeds, so the difference is the bus contention alone.
func Example_multicore() {
	subject := randmod.SyntheticWorkload(8*1024, 4, 4)
	hog := randmod.SyntheticWorkload(64*1024, 2, 4)
	campaign := func(co randmod.Workload) randmod.Request {
		return randmod.Request{
			Spec:       randmod.PaperPlatform(randmod.RM),
			Workload:   subject,
			CoRunners:  []randmod.Workload{co, co, co},
			Runs:       20,
			MasterSeed: 5,
		}
	}
	res, err := randmod.NewEngine().RunBatch(context.Background(),
		[]randmod.Request{campaign(randmod.Workload{}), campaign(hog)})
	if err != nil {
		panic(err)
	}
	solo, contended := res[0], res[1]
	fmt.Println("runs:", len(contended.Times))
	fmt.Println("co-runners slow it down:", contended.Mean() > solo.Mean())
	// Output:
	// runs: 20
	// co-runners slow it down: true
}

// Decoding a campaign service submission: the wire form names the
// placement and the workload, its fingerprint ignores the display name
// and the spelling of the placement, and Request resolves it into what
// the Engine runs.
func ExampleDecodeWireRequest() {
	w, err := randmod.DecodeWireRequest(strings.NewReader(
		`{"workload":"rspeed01","placement":"rm","runs":50,"seed":11}`))
	if err != nil {
		panic(err)
	}
	fp, err := w.Fingerprint()
	if err != nil {
		panic(err)
	}
	w.Name, w.Placement = "relabeled", "RM"
	relabeled, err := w.Fingerprint()
	if err != nil {
		panic(err)
	}
	req, err := w.Request()
	if err != nil {
		panic(err)
	}
	fmt.Println("same fingerprint:", fp == relabeled)
	fmt.Println(req.Workload.Name, req.Runs, req.MasterSeed)
	// Output:
	// same fingerprint: true
	// rspeed01 50 11
}

// Analyzing a measurement vector after the fact, as cmd/mbpta does with
// one rmsim wrote: the verdict is the one the Engine gave the campaign.
func ExampleAnalyze() {
	w, err := randmod.WorkloadByName("puwmod01")
	if err != nil {
		panic(err)
	}
	res, err := randmod.NewEngine().Run(context.Background(), randmod.Request{
		Spec:       randmod.PaperPlatform(randmod.RM),
		Workload:   w,
		Runs:       100,
		MasterSeed: 7,
		Analyze:    true,
	})
	if err != nil {
		panic(err)
	}
	an, err := randmod.Analyze(res.Times)
	if err != nil {
		panic(err)
	}
	fmt.Println("same pWCET as the campaign's:", an.PWCET15 == res.Analysis.PWCET15)
	fmt.Println("pWCET@1e-15 above pWCET@1e-12:", an.PWCET15 > an.PWCET12)
	// Output:
	// same pWCET as the campaign's: true
	// pWCET@1e-15 above pWCET@1e-12: true
}
