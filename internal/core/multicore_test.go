package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sequentialMulticore is the multicore study's former hand sweep: compile
// the subject and every co-runner at the default layout, then per run
// reseed one shared-bus system with Derive(seed, run) and keep core 0's
// result. The Engine's multicore campaign must reproduce its Times and
// Levels bit for bit.
func sequentialMulticore(t *testing.T, spec PlatformSpec, subject workload.Workload, co []workload.Workload, runs int, seed uint64) ([]float64, LevelStats) {
	t.Helper()
	cts := make([]*trace.Compiled, 1+len(co))
	for i, w := range append([]workload.Workload{subject}, co...) {
		if w.Build == nil {
			continue
		}
		ct, err := trace.Compile(w.Build(workload.DefaultLayout()), spec.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	sys, err := sim.NewSystem(spec.Config(), len(cts))
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, runs)
	var levels LevelStats
	for run := 0; run < runs; run++ {
		sys.Reseed(prng.Derive(seed, run))
		r := sys.RunAll(cts)[0]
		times[run] = float64(r.Cycles)
		levels.add(r)
	}
	return times, levels
}

// TestMulticoreMatchesHandSweep: a campaign with CoRunners reproduces the
// sequential RunAll sweep, solo (idle co-runners) and contended, in
// Times, Levels and the Analysis of the swept vector, at 1 and 4 workers.
func TestMulticoreMatchesHandSweep(t *testing.T) {
	subject := mustWorkload(t, "puwmod01")
	hog := workload.Synthetic(32*1024, 2, 4)
	spec := PaperPlatform(placement.RM)
	const runs, seed = 40, 0x3C0
	for _, tc := range []struct {
		name string
		co   workload.Workload
	}{{"solo", workload.Workload{}}, {"contended", hog}} {
		co := []workload.Workload{tc.co, tc.co, tc.co}
		wantTimes, wantLevels := sequentialMulticore(t, spec, subject, co, runs, seed)
		wantAn, err := Analyze(wantTimes)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			res, err := runWith(workers, Request{
				Spec: spec, Workload: subject, CoRunners: co,
				Runs: runs, MasterSeed: seed, Analyze: true,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !reflect.DeepEqual(res.Times, wantTimes) {
				t.Fatalf("%s workers=%d: Times = %v, hand sweep %v", tc.name, workers, res.Times, wantTimes)
			}
			if res.Levels != wantLevels {
				t.Fatalf("%s workers=%d: Levels = %+v, hand sweep %+v", tc.name, workers, res.Levels, wantLevels)
			}
			if !reflect.DeepEqual(*res.Analysis, wantAn) {
				t.Fatalf("%s workers=%d: Analysis = %+v, hand sweep %+v", tc.name, workers, *res.Analysis, wantAn)
			}
			if res.Trace.Accesses == 0 {
				t.Errorf("%s workers=%d: no trace accounting for the subject", tc.name, workers)
			}
		}
	}
}

// TestCoRunnersRejected: a request that cannot run multicore fails before
// any run, through its one CampaignFinished, with an error naming why;
// the campaign is never switched to another path.
func TestCoRunnersRejected(t *testing.T) {
	w := mustWorkload(t, "rspeed01")
	hog := workload.Synthetic(8*1024, 1, 4)
	empty := workload.Workload{Name: "empty", Build: func(workload.Layout) trace.Trace { return nil }}
	mbpta := Request{Spec: PaperPlatform(placement.RM), Workload: w, Runs: 8, MasterSeed: 1}
	for _, tc := range []struct {
		name string
		mut  func(r *Request)
		want string
	}{
		{"baseline", func(r *Request) {
			r.Spec, r.Baseline, r.CoRunners = DeterministicPlatform(), true, []workload.Workload{hog}
		}, "CoRunners do not apply to baseline"},
		{"security", func(r *Request) {
			*r = secRequest(security.EvictionSet, 8)
			r.CoRunners = []workload.Workload{hog}
		}, "CoRunners do not apply to security"},
		{"empty co-runner", func(r *Request) {
			r.CoRunners = []workload.Workload{hog, empty}
		}, "workload empty built an empty trace"},
	} {
		req := mbpta
		tc.mut(&req)
		var runs, finished int
		var finErr error
		eng := NewEngine(WithWorkers(2), WithEvents(func(ev Event) {
			switch ev.Kind {
			case RunCompleted:
				runs++
			case CampaignFinished:
				finished++
				finErr = ev.Err
			}
		}))
		_, err := eng.Run(context.Background(), req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if runs != 0 {
			t.Errorf("%s: %d RunCompleted events for a rejected campaign", tc.name, runs)
		}
		if finished != 1 || finErr != err {
			t.Errorf("%s: %d CampaignFinished events (err %v), want one carrying %v", tc.name, finished, finErr, err)
		}
	}
}
