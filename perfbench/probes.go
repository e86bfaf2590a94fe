package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/iid"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/security"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traced is the traced pass: it times calls into each layer's public
// functions on the workload's own inputs and fills m with the per-layer
// metrics. t holds the outcomes of the run's measured window; hits and
// misses are the service store's counters over that window. It returns the tally
// of the campaigns the pass itself ran, which are checked like any other.
func traced(ctx context.Context, cfg config, t *tally, hits, misses uint64, m map[string]metric) (*tally, error) {
	kind, err := placement.ParseKind(cfg.def.placement)
	if err != nil {
		return nil, err
	}
	spec := core.PlatformFor(kind)
	if err := kernelProbes(cfg, spec, kind, m); err != nil {
		return nil, err
	}
	if err := campaignProbes(ctx, cfg, m); err != nil {
		return nil, err
	}
	if err := securityProbe(cfg, kind, spec.IL1.Replacement, m); err != nil {
		return nil, err
	}
	probe, err := serviceProbes(cfg, m)
	if err != nil {
		return nil, err
	}
	pt, err := pairProbe(ctx, cfg, spec, m)
	if err != nil {
		return nil, err
	}
	if !cfg.def.service {
		// No request of the in-process workloads reaches a store; the
		// ratio is the service probe's, one submission and one repeat.
		hits, misses = probe.Hits, probe.Misses
	}
	m["service.store_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	if cfg.def.service {
		// The service reports queue wait and execution per job; the
		// in-process workloads take them from the traced engine instead.
		m["service.queue_wait_ms"] = metric{median(t.queueWait), "ms"}
		m["service.overhead_ms"] = metric{median(t.overhead), "ms"}
		m["service.events_per_miss"] = metric{median(t.events), "count"}
	}
	return pt, nil
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// timeBatch runs f in batches of n calls until at least budget has
// passed and returns the median per-call time over the batches.
func timeBatch(n int, budget time.Duration, f func(i int)) time.Duration {
	var per []float64
	start := time.Now()
	for k := 0; len(per) < 3 || time.Since(start) < budget; k++ {
		b := time.Now()
		for i := 0; i < n; i++ {
			f(k*n + i)
		}
		per = append(per, float64(time.Since(b))/float64(n))
	}
	return time.Duration(median(per))
}

// replayRuns is the number of reseeded replays per kernel in the replay
// probe.
const replayRuns = 20

// kernelProbes measures the trace build, compile, index-plan and replay
// layers on every kernel of the workload, under its platform.
func kernelProbes(cfg config, spec core.PlatformSpec, kind placement.Kind, m map[string]metric) error {
	var build, compile, index, replay time.Duration
	var lines, indexed, accesses int
	var allocs uint64
	var il1, dl1, l2 uint64
	layout := workload.DefaultLayout()
	for _, name := range kernels {
		wl, err := workload.ByName(name)
		if err != nil {
			return err
		}
		var tr trace.Trace
		build += timeMedian(3, func() { tr = wl.Build(layout) })
		var ct *trace.Compiled
		compile += timeMedian(3, func() { ct, err = trace.Compile(tr, spec.LineBytes) })
		if err != nil {
			return err
		}
		lines += len(ct.ILines) + len(ct.DLines)

		pol, err := placement.New(kind, spec.L1SizeBytes/(spec.L1Ways*spec.LineBytes))
		if err != nil {
			return err
		}
		all := append(append([]uint64(nil), ct.ILines...), ct.DLines...)
		out := make([]uint32, len(all))
		for r := 0; r < replayRuns; r++ {
			pol.Reseed(prng.Derive(cfg.seed, r))
			start := time.Now()
			placement.IndexAll(pol, all, out)
			index += time.Since(start)
			indexed += len(all)
		}

		p, err := spec.Build()
		if err != nil {
			return err
		}
		p.Reseed(cfg.seed)
		p.RunCompiled(ct) // size the index plans before counting allocations
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		var own time.Duration
		for r := 0; r < replayRuns; r++ {
			p.Reseed(prng.Derive(cfg.seed, r))
			start := time.Now()
			res := p.RunCompiled(ct)
			own += time.Since(start)
			accesses += res.Accesses
			il1 += res.IL1.Misses
			dl1 += res.DL1.Misses
			l2 += res.L2.Misses
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - mallocs
		replay += own
	}
	n := float64(len(kernels))
	m["workload.build_ms"] = metric{build.Seconds() * 1e3 / n, "ms"}
	m["trace.compile_ms"] = metric{compile.Seconds() * 1e3 / n, "ms"}
	m["trace.unique_lines"] = metric{float64(lines) / n, "count"}
	m["placement.indexall_ns_per_line"] = metric{float64(index) / float64(indexed), "ns"}
	m["sim.replay_ns_per_access"] = metric{float64(replay) / float64(accesses), "ns"}
	m["sim.replay_allocs_per_run"] = metric{float64(allocs) / (n * replayRuns), "count"}
	m["cache.il1_misses"] = metric{float64(il1), "count"}
	m["cache.dl1_misses"] = metric{float64(dl1), "count"}
	m["cache.l2_misses"] = metric{float64(l2), "count"}
	return nil
}

// campaignProbes runs one campaign of the probe kernel at the workload's
// scale, keeping its times and one mid-campaign checkpoint, and times the
// statistics, admissibility, EVT and checkpoint layers on them.
func campaignProbes(ctx context.Context, cfg config, m map[string]metric) error {
	w := cfg.def.request(indexOf(probeKernel), 0)
	w.KeepTimes = nil
	req, err := w.Request()
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var cp *core.Checkpoint
	req.CheckpointEvery = req.Runs / 2
	req.OnCheckpoint = func(c *core.Checkpoint) {
		mu.Lock()
		if cp == nil {
			cp = c
		}
		mu.Unlock()
	}
	res, err := core.NewEngine(core.WithWorkers(workers)).Run(ctx, req)
	if err != nil {
		return err
	}
	times := res.Times
	n := len(times)
	block := evt.BlockFor(n)

	// The per-run accumulators of one chunk, fed the whole campaign.
	adds := timeBatch(1, 50*time.Millisecond, func(int) {
		var mo stats.Moments
		var sk stats.QuantileSketch
		bm := stats.NewBlockMax(block, 0, n/block)
		for i, x := range times {
			mo.Add(x)
			sk.Add(x)
			bm.Add(i, x)
		}
	})
	m["stats.add_ns"] = metric{float64(adds) / float64(n), "ns"}

	// A one-worker campaign merges four chunks (core.chunkSize).
	type chunk struct {
		mo stats.Moments
		sk stats.QuantileSketch
		bm *stats.BlockMax
	}
	size := (n + 3) / 4
	var chunks []*chunk
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		c := &chunk{bm: stats.NewBlockMax(block, lo/block, (hi-1)/block+1)}
		for i := lo; i < hi; i++ {
			c.mo.Add(times[i])
			c.sk.Add(times[i])
			c.bm.Add(i, times[i])
		}
		chunks = append(chunks, c)
	}
	merge := timeBatch(1, 50*time.Millisecond, func(int) {
		var mo stats.Moments
		var sk stats.QuantileSketch
		bm := stats.NewBlockMax(block, 0, n/block)
		for _, c := range chunks {
			mo.Merge(&c.mo)
			sk.Merge(&c.sk)
			bm.Merge(c.bm)
		}
	})
	m["stats.merge_us"] = metric{merge.Seconds() * 1e6 / float64(len(chunks)), "us"}

	win := times[:min(n, iid.Window)]
	tests := timeMedian(5, func() {
		_, _ = iid.WaldWolfowitz(win) // the time is the metric; failing tests cost the same path
		_, _ = iid.KSSplit(win)
		_, _ = iid.ETTestSearch(win, nil)
	})
	m["iid.tests_ms"] = metric{tests.Seconds() * 1e3, "ms"}

	fit := timeBatch(1, 20*time.Millisecond, func(int) {
		maxima, err := evt.BlockMaxima(times, block)
		if err == nil {
			_, _ = evt.AnalyzeMaxima(maxima, block, n) // as above: the time is the metric
		}
	})
	m["evt.fit_ms"] = metric{fit.Seconds() * 1e3, "ms"}

	mu.Lock()
	defer mu.Unlock()
	if cp == nil {
		return fmt.Errorf("probe campaign captured no checkpoint")
	}
	var blob []byte
	enc := timeBatch(10, 20*time.Millisecond, func(int) { blob = cp.Encode() })
	m["core.checkpoint_encode_us"] = metric{enc.Seconds() * 1e6, "us"}
	m["core.checkpoint_bytes"] = metric{float64(len(blob)), "bytes"}
	return nil
}

// securityProbe times one attack round of each protocol on the
// workload's L1 placement and replacement, averaged over the protocols.
func securityProbe(cfg config, kind placement.Kind, repl cache.ReplacementKind, m map[string]metric) error {
	var total time.Duration
	for _, proto := range security.Protocols() {
		spec, err := security.Spec{Protocol: proto, Placement: kind, Replacement: repl}.Normalized()
		if err != nil {
			return err
		}
		e, err := security.NewEngine(spec, nil)
		if err != nil {
			return err
		}
		var out security.RoundOut
		total += timeBatch(4, 30*time.Millisecond, func(i int) { e.Round(prng.Derive(cfg.seed, i), &out) })
	}
	m["security.round_us"] = metric{total.Seconds() * 1e6 / float64(len(security.Protocols())), "us"}
	return nil
}

// serviceProbes times the service layers a request crosses, on the
// workload's own requests: decoding the wire form, fingerprinting it,
// looking it up in the result store, and serving a completed campaign's
// status with its result (handler only, no socket). It returns the probe
// service's store counters after one submission and one repeat.
func serviceProbes(cfg config, m map[string]metric) (service.StoreStats, error) {
	var none service.StoreStats
	cat := cfg.def.catalog()
	w := cat[0]
	body, err := json.Marshal(w)
	if err != nil {
		return none, err
	}
	var derr error
	dec := timeBatch(200, 20*time.Millisecond, func(int) { _, derr = core.DecodeWireRequest(bytes.NewReader(body)) })
	if derr != nil {
		return none, derr
	}
	m["service.decode_us"] = metric{dec.Seconds() * 1e6, "us"}
	fpt := timeBatch(200, 20*time.Millisecond, func(int) { _, derr = w.Fingerprint() })
	if derr != nil {
		return none, derr
	}
	m["service.fingerprint_us"] = metric{fpt.Seconds() * 1e6, "us"}

	st := service.NewStore(1024, nil, nil)
	fps := make([]string, len(cat))
	for i, c := range cat {
		if fps[i], err = c.Fingerprint(); err != nil {
			return none, err
		}
		st.GetOrCreate(fps[i], func() any { return i })
	}
	look := timeBatch(1000, 20*time.Millisecond, func(i int) { st.GetOrCreate(fps[i%len(fps)], func() any { return nil }) })
	m["service.store_lookup_us"] = metric{look.Seconds() * 1e6, "us"}

	srv, err := service.New(service.Config{Workers: workers, Jobs: 1})
	if err != nil {
		return none, err
	}
	defer srv.Close()
	job, _, err := srv.Submit(w)
	if err != nil {
		return none, err
	}
	<-job.Done()
	if _, cached, err := srv.Submit(w); err != nil || !cached {
		return none, fmt.Errorf("repeat of %s was not served from the store (%v)", w.Label(), err)
	}
	h := srv.Handler()
	var code int
	enc := timeBatch(50, 20*time.Millisecond, func(int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+job.ID, nil))
		code = rec.Code
	})
	if code != http.StatusOK {
		return none, fmt.Errorf("status probe answered %d", code)
	}
	m["service.result_encode_us"] = metric{enc.Seconds() * 1e6, "us"}
	return srv.Store().Stats(), nil
}

// clock timestamps one campaign's engine events as they are delivered.
type clock struct {
	mu                                  sync.Mutex
	started, compiled, replay, finished time.Time
	events                              int
}

func (c *clock) sink(ev core.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	switch ev.Kind {
	case core.CampaignStarted:
		c.started = now
	case core.PhaseDone:
		switch ev.Phase {
		case core.PhaseCompile:
			c.compiled = now
		case core.PhaseReplay:
			c.replay = now
		}
	case core.CampaignFinished:
		c.finished = now
	}
}

func (c *clock) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started, c.compiled, c.replay, c.finished = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	c.events = 0
}

// pairProbe runs the first round's timing campaigns twice each, on an
// engine without an event sink and on one whose sink timestamps every
// event, until a third of the budget has passed (at least two pairs). The
// traced runs give the phase times and what share of a campaign the
// replay and the trace build+compile take; the pairs give the tracing
// overhead. Right after each pair, on the same CPU, the campaign's
// kernel is replayed bare, as many runs as the campaign made.
//
// An MBPTA campaign builds and compiles its trace once, then replays it:
// the phases follow from the compile and replay PhaseDone events. A
// baseline campaign rebuilds and recompiles its trace every run, between
// the replays, so its replay is taken as the bare replay time and
// its build+compile as the rest of the loop up to the replay PhaseDone.
// Either way the compile, replay and analyze phases split one campaign.
func pairProbe(ctx context.Context, cfg config, spec core.PlatformSpec, m map[string]metric) (_ *tally, err error) {
	// Each pair runs on one CPU, the CPUs in turn, so that its two sides
	// see the same host speed.
	cpus, restore, err := oneCPU()
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := restore(); err == nil {
			err = rerr
		}
	}()
	pt := newTally(cfg.golden)
	var c clock
	plain := newEngineSUT(cfg.def, workers, nil)
	tracedSUT := newEngineSUT(cfg.def, workers, c.sink)
	var compile, replay, analyze, queue, overhead, events []float64
	var plainSum, tracedSum, campaignSum, loopSum, replaySum, bareSum, prepSum time.Duration
	start := time.Now()
	pairs := 0
	for _, o := range newPlan(cfg.def, cfg.seed).nextRound() {
		if !o.miss || o.wire.Security != nil {
			continue
		}
		if pairs >= 2 && time.Since(start).Seconds() >= cfg.seconds/3 {
			break
		}
		if cfg.maxMisses > 0 && pairs >= cfg.maxMisses {
			break
		}
		if err := pin(cpus, pairs); err != nil {
			return pt, err
		}
		// Alternate which side runs first, so warm-up and drift cancel.
		var po, to outcome
		var call time.Time
		runTraced := func() {
			c.reset()
			call = time.Now()
			to = tracedSUT.miss(ctx, o.wire)
		}
		if pairs%2 == 0 {
			po = plain.miss(ctx, o.wire)
			runTraced()
		} else {
			runTraced()
			po = plain.miss(ctx, o.wire)
		}
		pt.add(o.wire, po, true)
		pt.add(o.wire, to, true)
		if po.err != nil || to.err != nil {
			continue
		}
		pairs++
		plainSum += po.latency
		tracedSum += to.latency
		bareRuns, err := bareReplay(spec, o.wire.Workload, o.wire.Runs, cfg.seed)
		if err != nil {
			return pt, err
		}
		c.mu.Lock()
		loop := c.replay.Sub(c.compiled) // replay phase; on baseline the whole run loop
		prep := c.compiled.Sub(c.started)
		rep := loop
		if o.wire.Baseline {
			loop = c.replay.Sub(c.started)
			rep = bareRuns
			prep = loop - rep
		} else if c.compiled.IsZero() {
			c.mu.Unlock()
			return pt, fmt.Errorf("campaign %s reported no compile phase", o.wire.Label())
		}
		compile = append(compile, ms(prep))
		replay = append(replay, ms(rep))
		analyze = append(analyze, ms(c.finished.Sub(c.replay)))
		queue = append(queue, ms(c.started.Sub(call)))
		overhead = append(overhead, ms(to.latency-c.finished.Sub(c.started)))
		events = append(events, float64(c.events))
		prepSum += prep
		replaySum += rep
		loopSum += loop
		campaignSum += c.finished.Sub(c.started)
		c.mu.Unlock()
		bareSum += bareRuns
	}
	if pairs == 0 {
		return pt, fmt.Errorf("traced pass completed no campaign pair")
	}
	m["core.compile_phase_ms"] = metric{median(compile), "ms"}
	m["core.replay_phase_ms"] = metric{median(replay), "ms"}
	m["core.analyze_phase_ms"] = metric{median(analyze), "ms"}
	m["core.replay_overhead_ratio"] = metric{float64(loopSum) / float64(bareSum), "ratio"}
	m["core.replay_share"] = metric{float64(replaySum) / float64(campaignSum), "ratio"}
	m["core.build_compile_share"] = metric{float64(prepSum) / float64(campaignSum), "ratio"}
	m["obs.tracing_overhead"] = metric{float64(tracedSum)/float64(plainSum) - 1, "ratio"}
	if !cfg.def.service {
		m["service.queue_wait_ms"] = metric{median(queue), "ms"}
		m["service.overhead_ms"] = metric{median(overhead), "ms"}
		m["service.events_per_miss"] = metric{median(events), "count"}
	}
	return pt, nil
}

// bareReplay is the time of runs reseeded RunCompiled replays of a
// kernel's default-layout trace on a platform of spec.
func bareReplay(spec core.PlatformSpec, kernel string, runs int, seed uint64) (time.Duration, error) {
	wl, err := workload.ByName(kernel)
	if err != nil {
		return 0, err
	}
	ct, err := trace.Compile(wl.Build(workload.DefaultLayout()), spec.LineBytes)
	if err != nil {
		return 0, err
	}
	p, err := spec.Build()
	if err != nil {
		return 0, err
	}
	p.Reseed(seed)
	p.RunCompiled(ct) // size the index plans outside the timing
	start := time.Now()
	for r := 0; r < runs; r++ {
		p.Reseed(prng.Derive(seed, r))
		p.RunCompiled(ct)
	}
	return time.Since(start), nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func indexOf(kernel string) int {
	for i, k := range kernels {
		if k == kernel {
			return i
		}
	}
	return -1
}
