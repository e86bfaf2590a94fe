package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/prng"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Request describes one measurement campaign for a Runner or Engine: one
// program, many runs, all randomness derived from MasterSeed and the run
// index. A Request carries no execution knobs -- the worker pool belongs
// to the Engine, so dozens of Requests can share it.
type Request struct {
	// Name labels the campaign in Events. Empty defaults to the workload
	// name, suffixed "/hwm" for baseline requests.
	Name       string
	Spec       PlatformSpec
	Workload   workload.Workload
	Runs       int
	MasterSeed uint64
	// Layout optionally overrides the base memory layout. MBPTA campaigns
	// build their single shared trace from it; Baseline campaigns perturb
	// it per run. Run k's baseline layout is a pure function of
	// (MasterSeed, k, *Layout): workload.RandomizedLayoutFrom(*Layout, a
	// PRNG derived from (MasterSeed^hwmSeedTag, k)), or RandomizedLayout
	// over the default layout when nil. Baseline Times are therefore
	// bit-identical for any worker count, batch interleaving and host.
	Layout *workload.Layout
	// Baseline selects the industrial high-water-mark protocol instead of
	// the MBPTA one: each run rebuilds the trace under a freshly
	// randomized memory layout (typically on a deterministic platform)
	// rather than drawing a fresh hardware seed over a fixed layout.
	Baseline bool
	// Analyze additionally applies the MBPTA statistical pipeline to the
	// collected times and stores it in Result.Analysis.
	Analyze bool
	// Security selects the attacker-campaign family instead of a timing
	// campaign: Runs counts attack rounds on the standalone attacked cache
	// described by the spec, and Result.Security carries the
	// success-vs-effort curves. Spec is ignored; Workload optionally names
	// the occupancy protocol's victim (empty selects the synthetic
	// victim); Baseline and Analyze do not apply and are rejected.
	Security *security.Spec
	// KeepTimes controls whether Result.Times retains the per-run
	// measurement vector. The zero value keeps it (full back-compat);
	// TimesDrop leaves Times nil so a campaign's steady-state memory is
	// independent of its run count — Summary, the analysis and the miss
	// ratios are unaffected (they come from streaming accumulators either
	// way).
	KeepTimes TimesMode

	// Resume restarts the campaign from a checkpoint previously captured
	// via OnCheckpoint (and usually round-tripped through
	// Encode/DecodeCheckpoint across a crash). The checkpoint must match
	// the request's kind, master seed, run count and KeepTimes mode
	// (*ResumeMismatchError otherwise); only runs past the checkpoint's
	// frontier execute, and the completed Result is bit-identical to an
	// uninterrupted campaign for any worker count on either side of the
	// interruption. Resume is an execution knob like the pool size: it is
	// not part of the wire codec and does not enter the Fingerprint.
	Resume *Checkpoint
	// CheckpointEvery captures a checkpoint each time the merged frontier
	// advances at least this many runs past the previous capture (0
	// disables capture). Captures happen at chunk-merge boundaries, so the
	// effective cadence is the next frontier advance at or after the
	// requested stride.
	CheckpointEvery int
	// OnCheckpoint receives captured checkpoints. Like the Events sink it
	// is called on the worker path under internal locks: it must be fast
	// and non-blocking (hand the pointer to a channel or goroutine; the
	// Checkpoint is immutable once delivered) and must not call back into
	// the Runner.
	OnCheckpoint func(*Checkpoint)
}

// TimesMode selects the fate of the per-run measurement vector. It is an
// enum rather than a bool so the zero-value Request keeps today's
// buffered behaviour.
type TimesMode int

const (
	// TimesKeep retains Result.Times (the default).
	TimesKeep TimesMode = iota
	// TimesDrop discards per-run times; aggregates live in Result.Summary.
	TimesDrop
)

// Kind discriminates the campaign families a Request can select.
type Kind int

// Campaign kinds.
const (
	KindMBPTA Kind = iota
	KindBaseline
	KindSecurity
)

// String names the kind for catalogs and logs.
func (k Kind) String() string {
	switch k {
	case KindMBPTA:
		return "mbpta"
	case KindBaseline:
		return "baseline"
	case KindSecurity:
		return "security"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindNames returns the campaign-kind names in declaration order, for
// service discovery.
func KindNames() []string {
	return []string{KindMBPTA.String(), KindBaseline.String(), KindSecurity.String()}
}

// Kind reports which campaign family the request selects.
func (r Request) Kind() Kind {
	switch {
	case r.Security != nil:
		return KindSecurity
	case r.Baseline:
		return KindBaseline
	default:
		return KindMBPTA
	}
}

// name resolves the event label of the request.
func (r Request) name() string {
	if r.Name != "" {
		return r.Name
	}
	if r.Security != nil {
		return fmt.Sprintf("security/%s/%s/%s",
			r.Security.Protocol, r.Security.Placement, r.Security.Replacement)
	}
	n := r.Workload.Name
	if r.Baseline {
		n += "/hwm"
	}
	return n
}

// Result is the outcome of one Request. It embeds the classic
// CampaignResult: MBPTA requests fill all of it; Baseline requests fill
// Times and the per-level counters but leave the Trace accounting zero,
// since the trace is rebuilt per run rather than shared. When the
// campaign was cancelled mid-flight, Times holds the completed runs at
// their indices and zeros elsewhere, alongside the returned error.
type Result struct {
	Name string
	CampaignResult
	// Analysis is set when Request.Analyze was true and the campaign
	// completed.
	Analysis *Analysis
	// Security is set for security campaigns (Request.Security non-nil):
	// the aggregated success-vs-effort curves and channel statistics. For
	// those campaigns Times holds per-round attacker access counts and the
	// per-level counters stay zero (the attacked cache is standalone).
	Security *security.Result
}

// EventKind discriminates Engine progress events.
type EventKind int

const (
	// CampaignStarted fires once per request, before its first run.
	CampaignStarted EventKind = iota
	// RunCompleted fires after every simulated run.
	RunCompleted
	// CampaignFinished fires once per request, after its last run, the
	// optional analysis, or a failure (Err non-nil).
	CampaignFinished
	// PhaseDone fires when a campaign phase ends (Event.Phase names it:
	// "compile", "replay", "analyze"), so observers can attribute wall
	// time without any clock read on the execution path. Phases that do
	// not apply to a campaign kind simply never fire (baseline campaigns
	// rebuild their trace per run, security campaigns never analyze).
	PhaseDone
	// SnapshotTaken fires each time the streaming accumulators advance
	// over a longer contiguous run prefix; Event.Snapshot carries the
	// converging statistics (timing campaigns only). Snapshots arrive in
	// increasing Runs order, at most one per completed chunk.
	SnapshotTaken
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case CampaignStarted:
		return "started"
	case RunCompleted:
		return "run"
	case CampaignFinished:
		return "finished"
	case PhaseDone:
		return "phase"
	case SnapshotTaken:
		return "snapshot"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Campaign phase names carried by PhaseDone events.
const (
	PhaseCompile = "compile"
	PhaseReplay  = "replay"
	PhaseAnalyze = "analyze"
)

// Event is one progress notification. Deliveries are serialized (the sink
// never runs concurrently with itself), so sinks need no locking of their
// own. The sink is called synchronously on the worker path while internal
// locks are held: it must return quickly, must not block (send to a
// buffered channel or drop, never an unbuffered rendezvous), and must not
// call back into the Engine or Runner that delivered the event.
type Event struct {
	Kind         EventKind
	Campaign     string // Request.Name (or its default)
	CampaignKind Kind   // campaign family of the request (Request.Kind())
	Phase        string // completed phase name (PhaseDone only)
	Index        int    // position of the request in its batch (0 for Run)
	Run          int    // completed run index (RunCompleted only)
	Cycles       float64
	Done         int       // completed runs so far, campaign-local
	Total        int       // Request.Runs
	Snapshot     *Snapshot // converging statistics (SnapshotTaken only)
	Err          error     // CampaignFinished only; nil on success
}

// Runner executes campaign Requests over a shared Pool of simulation
// workers. It is the core execution primitive of the library: Engine
// layers options, defaults and batch orchestration on top of one.
//
// The zero value is ready to use (it allocates a private GOMAXPROCS pool
// on first run). A Runner is safe for concurrent use.
type Runner struct {
	// Pool is the shared worker allotment; nil selects a private
	// GOMAXPROCS-sized pool on first use.
	Pool *Pool
	// Events receives progress notifications; nil disables them. See
	// Event for the sink contract (fast, non-blocking, no re-entry).
	Events func(Event)
	// CheckpointReplay runs every campaign through an interrupt + wire
	// round trip + resume cycle instead of straight through (see
	// WithCheckpointReplay). Results must be unchanged; it exists so the
	// bench trajectory can pin that claim.
	CheckpointReplay bool

	mu   sync.Mutex // guards lazy Pool init
	evmu sync.Mutex // serializes Events deliveries
}

func (r *Runner) pool() *Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Pool == nil {
		r.Pool = NewPool(0)
	}
	return r.Pool
}

func (r *Runner) emit(ev Event) {
	if r.Events == nil {
		return
	}
	r.evmu.Lock()
	defer r.evmu.Unlock()
	r.Events(ev)
}

// Run executes one Request to completion (or cancellation). Results are a
// pure function of the Request: they are bit-identical for any pool size
// and regardless of what else runs on the pool concurrently.
func (r *Runner) Run(ctx context.Context, req Request) (Result, error) {
	return r.run(ctx, 0, req)
}

// run executes req as batch member index, detouring through the
// checkpoint-replay harness when the Runner asks for it.
func (r *Runner) run(ctx context.Context, index int, req Request) (Result, error) {
	if r.CheckpointReplay && req.Resume == nil && req.OnCheckpoint == nil && req.Runs > 1 {
		return r.runReplay(ctx, index, req)
	}
	return r.runOnce(ctx, index, req)
}

// runReplay is the self-checking execution mode behind
// WithCheckpointReplay: run until the first checkpoint past the midpoint,
// cancel, round-trip the checkpoint through the wire codec, and resume.
// The completed Result must be — and the resumed-bench CI gate asserts it
// is — bit-identical to a plain run.
//
// Event consumers see the two legs spliced into ONE campaign: the first
// leg's cancellation Finished and the second leg's Started are dropped,
// so the stream still carries exactly one CampaignStarted and one
// CampaignFinished per submitted request. Runs the first leg completed
// past the checkpoint frontier re-execute on the second leg and re-emit
// RunCompleted with bit-identical cycles; across the splice the Done
// counter may step back once (the strict monotonicity of a plain run is
// relaxed to per-leg monotonicity).
func (r *Runner) runReplay(ctx context.Context, index int, req Request) (Result, error) {
	leg, cancel := context.WithCancel(ctx)
	defer cancel()
	var captured atomic.Pointer[Checkpoint]
	first := req
	first.CheckpointEvery = (req.Runs + 1) / 2
	first.OnCheckpoint = func(cp *Checkpoint) {
		if captured.CompareAndSwap(nil, cp) {
			cancel()
		}
	}
	// Sub-runners share the pool but filter the splice-point events,
	// forwarding the rest through r.emit so deliveries stay serialized
	// with every other campaign on this Runner.
	var fin *Event // leg 1's suppressed Finished; emitted from runOnce's own goroutine
	leg1 := &Runner{Pool: r.pool()}
	if r.Events != nil {
		leg1.Events = func(ev Event) {
			if ev.Kind == CampaignFinished {
				fin = &ev
				return
			}
			r.emit(ev)
		}
	}
	res1, err1 := leg1.runOnce(leg, index, first)
	cp := captured.Load()
	if cp == nil {
		// The campaign finished (or failed) before any checkpoint fired —
		// nothing to resume; the first leg already is the plain run. Emit
		// the Finished withheld by the filter to complete the stream.
		if fin != nil {
			r.emit(*fin)
		}
		return res1, err1
	}
	dec, err := DecodeCheckpoint(cp.Encode())
	if err != nil {
		return Result{Name: req.name()}, fmt.Errorf("core: checkpoint replay round trip: %w", err)
	}
	leg2 := &Runner{Pool: r.pool()}
	if r.Events != nil {
		leg2.Events = func(ev Event) {
			if ev.Kind == CampaignStarted {
				return
			}
			r.emit(ev)
		}
	}
	second := req
	second.Resume = dec
	return leg2.runOnce(ctx, index, second)
}

// runOnce executes req once. On cancellation the returned error wraps
// ctx.Err() (so errors.Is(err, context.Canceled) holds) and the Result
// carries the partial measurement vector.
func (r *Runner) runOnce(ctx context.Context, index int, req Request) (Result, error) {
	res := Result{Name: req.name()}
	kind := req.Kind()
	var done atomic.Int64
	// Every submitted request emits exactly one CampaignStarted and one
	// CampaignFinished (Err set on failure), so stream consumers can
	// count completions without special-casing validation errors.
	r.emit(Event{Kind: CampaignStarted, Campaign: res.Name, CampaignKind: kind, Index: index, Total: req.Runs})
	finish := func(err error) (Result, error) {
		r.emit(Event{Kind: CampaignFinished, Campaign: res.Name, CampaignKind: kind, Index: index,
			Done: int(done.Load()), Total: req.Runs, Err: err})
		return res, err
	}
	// phase marks a phase boundary for observers (latency attribution,
	// trace spans). Like every event it is emitted off the replay path —
	// at most three deliveries per campaign — and carries no timestamp:
	// clocks stay with the observers, keeping this package deterministic.
	phase := func(name string) {
		r.emit(Event{Kind: PhaseDone, Campaign: res.Name, CampaignKind: kind, Index: index,
			Phase: name, Done: int(done.Load()), Total: req.Runs})
	}
	if req.Runs < 1 {
		return finish(errors.New("core: campaign needs at least one run"))
	}
	if req.Security != nil {
		return r.runSecurity(ctx, index, req, &res, &done, finish)
	}
	if req.Workload.Build == nil {
		return finish(errors.New("core: campaign needs a workload"))
	}

	var do func(p *sim.Core, run int) (sim.Result, error)
	if req.Baseline {
		do = func(p *sim.Core, run int) (sim.Result, error) {
			seed := prng.Derive(req.MasterSeed^hwmSeedTag, run)
			g := prng.New(seed)
			var layout workload.Layout
			if req.Layout != nil {
				layout = workload.RandomizedLayoutFrom(*req.Layout, g)
			} else {
				layout = workload.RandomizedLayout(g)
			}
			tr := req.Workload.Build(layout)
			if len(tr) == 0 {
				return sim.Result{}, fmt.Errorf("core: workload %s built an empty trace for run %d", req.Workload.Name, run)
			}
			// Reseed rather than Flush: deterministic policies ignore the
			// seed (so the typical modulo+LRU baseline is unchanged), while
			// any randomized policy in Spec becomes a pure function of the
			// run index instead of carrying PRNG state across runs.
			p.Reseed(seed)
			// The baseline rebuilds its trace per run, so it compiles per
			// run too (unlike MBPTA's build-once).
			ct, err := trace.Compile(tr, req.Spec.LineBytes)
			if err != nil {
				return sim.Result{}, fmt.Errorf("core: workload %s run %d: %w", req.Workload.Name, run, err)
			}
			return p.RunCompiled(ct), nil
		}
	} else {
		layout := workload.DefaultLayout()
		if req.Layout != nil {
			layout = *req.Layout
		}
		// The one-time trace build (and its compilation) runs under a pool
		// slot too: a large RunBatch spawns one goroutine per request, and
		// without the gate they would all build concurrently regardless of
		// the pool size.
		if err := r.pool().acquire(ctx); err != nil {
			return finish(fmt.Errorf("core: campaign %s aborted before any runs: %w", res.Name, err))
		}
		tr := req.Workload.Build(layout)
		// Compile once per campaign: the trace is fixed while only seeds
		// change, so all workers share one read-only Compiled and each run
		// materializes its index plans from it (the campaign hot path).
		ct, err := trace.Compile(tr, req.Spec.LineBytes)
		r.pool().release()
		if len(tr) == 0 {
			return finish(fmt.Errorf("core: workload %s built an empty trace", req.Workload.Name))
		}
		if err != nil {
			return finish(fmt.Errorf("core: campaign %s: %w", res.Name, err))
		}
		f, l, st := tr.Counts()
		res.Trace.Accesses = len(tr)
		res.Trace.Fetches, res.Trace.Loads, res.Trace.Stores = f, l, st
		phase(PhaseCompile)
		do = func(p *sim.Core, run int) (sim.Result, error) {
			p.Reseed(prng.Derive(req.MasterSeed, run))
			return p.RunCompiled(ct), nil
		}
	}

	// All aggregates stream through the campaign accumulator; the buffered
	// vector is only allocated when the caller wants it back.
	acc := newCampaignAccum(req.Runs)
	acc.meta = ckptMeta{kind: kind, seed: req.MasterSeed, keepTimes: req.KeepTimes}
	if r.Events != nil {
		acc.onProgress = func(s Snapshot) {
			snap := s
			r.emit(Event{Kind: SnapshotTaken, Campaign: res.Name, CampaignKind: kind, Index: index,
				Snapshot: &snap, Done: s.Runs, Total: req.Runs})
		}
	}
	if req.CheckpointEvery > 0 {
		acc.ckptEvery = req.CheckpointEvery
		acc.onCheckpoint = req.OnCheckpoint
	}
	var times []float64
	if req.KeepTimes == TimesKeep {
		times = make([]float64, req.Runs)
	}
	acc.times = times
	start := 0
	if req.Resume != nil {
		if err := req.Resume.validate(req); err != nil {
			return finish(err)
		}
		acc.restore(req.Resume)
		start = req.Resume.Frontier
		done.Store(int64(start))
	}
	onRun := func(run int, sr sim.Result) {
		// The increment and the delivery share the mutex so the Done
		// counter in the event stream is strictly monotone.
		if r.Events == nil {
			done.Add(1)
			return
		}
		r.evmu.Lock()
		n := int(done.Add(1))
		r.Events(Event{
			Kind: RunCompleted, Campaign: res.Name, CampaignKind: kind, Index: index,
			Run: run, Cycles: float64(sr.Cycles), Done: n, Total: req.Runs,
		})
		r.evmu.Unlock()
	}

	totals, err := runShards(ctx, r.pool(), req.Spec, start, times, acc, do, onRun)
	res.Times = times
	res.Summary = acc.summary()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("core: campaign %s aborted after %d/%d runs: %w",
				res.Name, done.Load(), req.Runs, err)
		}
		return finish(err)
	}
	res.Levels = totals
	res.IL1Miss = totals.IL1.MissRatio()
	res.DL1Miss = totals.DL1.MissRatio()
	res.L2Miss = totals.L2.MissRatio()
	phase(PhaseReplay)

	if req.Analyze {
		// The analysis comes from the streaming accumulators — bit-identical
		// to the buffered Analyze(res.Times), which stays as the reference
		// oracle in the differential tests.
		an, err := acc.analysis()
		if err != nil {
			return finish(err)
		}
		res.Analysis = &an
		phase(PhaseAnalyze)
	}
	return finish(nil)
}

// Engine is the context-aware front door of the library: one shared
// simulation worker pool serving any number of campaigns, with optional
// progress events and batch orchestration. Construct it once per process
// (or per experiment suite) and submit Requests to it; parallelism is
// purely a wall-clock knob, never a results knob.
type Engine struct {
	runner      Runner
	defaultRuns int
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithWorkers sizes the shared simulation pool (non-positive selects
// runtime.GOMAXPROCS(0)).
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.runner.Pool = NewPool(n) }
}

// WithPool shares an existing pool with another Engine or with custom
// ShardRunsPool sweeps.
func WithPool(p *Pool) EngineOption {
	return func(e *Engine) { e.runner.Pool = p }
}

// WithEvents installs a progress sink. Deliveries are serialized, so the
// sink needs no locking; see Event for the rest of the contract (fast,
// non-blocking, no re-entry). A channel-backed sink over a generously
// buffered channel is one line: WithEvents(func(ev Event) { ch <- ev }).
func WithEvents(sink func(Event)) EngineOption {
	return func(e *Engine) { e.runner.Events = sink }
}

// WithCheckpointReplay makes the Engine execute every campaign as an
// interrupted-and-resumed pair: run to the first checkpoint past the
// midpoint, cancel, round-trip the checkpoint through
// Encode/DecodeCheckpoint, and resume to completion. Results are
// bit-identical to plain runs by the resume contract — `paperbench
// -resume-check` uses this to regenerate the bench trajectory through the
// crash path so CI can compare it against the committed snapshots.
func WithCheckpointReplay() EngineOption {
	return func(e *Engine) { e.runner.CheckpointReplay = true }
}

// WithDefaultRuns sets the campaign scale applied to Requests that leave
// Runs at zero, so experiment suites configure size once on the Engine.
func WithDefaultRuns(n int) EngineOption {
	return func(e *Engine) { e.defaultRuns = n }
}

// NewEngine builds an Engine; with no options it uses a GOMAXPROCS-sized
// pool, no events, and no default scale.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.runner.Pool == nil {
		e.runner.Pool = NewPool(0)
	}
	return e
}

// Workers reports the shared pool size.
func (e *Engine) Workers() int { return e.runner.pool().Workers() }

// Pool exposes the shared pool for custom sweeps (ShardRunsPool) that
// should contend with the Engine's campaigns instead of oversubscribing
// the host.
func (e *Engine) Pool() *Pool { return e.runner.pool() }

func (e *Engine) prepared(req Request) Request {
	if req.Runs == 0 && e.defaultRuns > 0 {
		req.Runs = e.defaultRuns
	}
	return req
}

// Run executes one campaign over the shared pool. Cancelling ctx aborts
// it mid-campaign: the returned error wraps ctx.Err() and the Result
// holds the partial measurement vector.
func (e *Engine) Run(ctx context.Context, req Request) (Result, error) {
	return e.runner.run(ctx, 0, e.prepared(req))
}

// RunBatch schedules many campaigns over the shared pool at once and
// waits for all of them. Per-campaign results are bit-identical to
// running each Request alone (randomness derives from each campaign's
// MasterSeed and run indices, never from scheduling), so a batch is the
// preferred way to drive an experiment suite: one pool, full machine
// utilization, deterministic output.
//
// All requests run even if some fail; the returned error is the
// lowest-indexed failure (use the per-Result contents for the rest).
// Cancelling ctx aborts every member with a wrapped ctx.Err().
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	results := make([]Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			results[i], errs[i] = e.runner.run(ctx, i, req)
		}(i, e.prepared(req))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
