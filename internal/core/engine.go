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

// Request describes one measurement campaign for an Engine: one
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
	// when nil. Baseline Times are therefore bit-identical for any worker
	// count, batch interleaving and host.
	Layout *workload.Layout
	// Baseline selects the industrial high-water-mark protocol instead of
	// the MBPTA one: each run replays the program under a freshly
	// randomized memory layout (typically on a deterministic platform)
	// rather than drawing a fresh hardware seed over a fixed layout. The
	// workload is compiled once per campaign and each run relocates its
	// lines to the run's layout (see workload.Relocatable).
	Baseline bool
	// Analyze additionally applies the MBPTA statistical pipeline to the
	// collected times and stores it in Result.Analysis.
	Analyze bool
	// CoRunners makes an MBPTA campaign multicore when non-empty: the
	// Workload runs on core 0 of a shared-bus sim.System of
	// 1+len(CoRunners) cores built from Spec, and CoRunners[i] on core
	// i+1. Every program compiles once per campaign at the campaign
	// layout; a co-runner whose Build is nil leaves its core idle. Run k
	// reseeds the whole system with Derive(MasterSeed, k) and measures
	// core 0, whose cache counters fill the per-level results. Baseline
	// and Security campaigns reject it.
	CoRunners []workload.Workload
	// Security selects the attacker-campaign family instead of a timing
	// campaign: Runs counts attack rounds on the standalone attacked cache
	// described by the spec, and Result.Security carries the
	// success-vs-effort curves. Spec is ignored; Workload optionally names
	// the occupancy protocol's victim (empty selects the synthetic
	// victim); Baseline and Analyze do not apply and are rejected.
	Security *security.Spec
	// KeepTimes controls whether Result.Times retains the per-run
	// measurement vector. The zero value keeps it (full back-compat);
	// TimesDrop leaves Times nil so a timing campaign's steady-state
	// memory is independent of its run count — Summary, the analysis and
	// the miss ratios are unaffected (they come from streaming
	// accumulators either way). Security campaigns buffer their per-round
	// outputs under either mode, since their aggregate consumes them.
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
	// the Engine.
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
// Times and the per-level counters but leave the Trace accounting zero.
// When the campaign was cancelled mid-flight, Times holds the completed
// runs at their indices and zeros elsewhere, alongside the returned error.
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
	// not apply to a campaign simply never fire (security campaigns
	// without a victim workload compile nothing and never analyze).
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
// call back into the Engine that delivered the event.
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

// Engine is the front door of the library and its one campaign runner: a
// shared simulation worker pool serving any number of campaigns, with
// optional progress events and batch orchestration. Construct it once per
// process (or per experiment suite) and submit Requests to it;
// parallelism is purely a wall-clock knob, never a results knob.
//
// The zero value is ready to use (it allocates a private GOMAXPROCS pool
// on first use). An Engine is safe for concurrent use.
type Engine struct {
	pool   *Pool       // shared worker allotment; see Pool
	events func(Event) // progress sink (WithEvents); nil disables events
	// replay runs every campaign through an interrupt + wire round trip +
	// resume cycle instead of straight through (WithCheckpointReplay).
	replay bool

	mu   sync.Mutex // guards lazy pool init
	evmu sync.Mutex // serializes events deliveries
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithWorkers sizes the shared simulation pool (non-positive selects
// runtime.GOMAXPROCS(0)).
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.pool = NewPool(n) }
}

// WithEvents installs a progress sink. Deliveries are serialized, so the
// sink needs no locking; see Event for the rest of the contract (fast,
// non-blocking, no re-entry). A channel-backed sink over a generously
// buffered channel is one line: WithEvents(func(ev Event) { ch <- ev }).
func WithEvents(sink func(Event)) EngineOption {
	return func(e *Engine) { e.events = sink }
}

// WithCheckpointReplay makes the Engine execute every campaign as an
// interrupted-and-resumed pair: run to the first checkpoint past the
// midpoint, cancel, round-trip the checkpoint through
// Encode/DecodeCheckpoint, and resume to completion. Results are
// bit-identical to plain runs by the resume contract — `paperbench
// -resume-check` uses this to regenerate the bench trajectory through the
// crash path, and TestTrajectoryMatchesCommittedSnapshots (cmd/paperbench)
// compares it against the committed snapshots.
func WithCheckpointReplay() EngineOption {
	return func(e *Engine) { e.replay = true }
}

// NewEngine builds an Engine; with no options it uses a GOMAXPROCS-sized
// pool and no events.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Workers reports the shared pool size.
func (e *Engine) Workers() int { return e.Pool().Workers() }

// Pool returns the shared worker pool, allocating the GOMAXPROCS-sized
// default on first use, so observers can poll its occupancy.
func (e *Engine) Pool() *Pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pool == nil {
		e.pool = NewPool(0)
	}
	return e.pool
}

func (e *Engine) emit(ev Event) {
	if e.events == nil {
		return
	}
	e.evmu.Lock()
	defer e.evmu.Unlock()
	e.events(ev)
}

// Run executes one campaign over the shared pool. Results are a pure
// function of the Request: they are bit-identical for any pool size and
// regardless of what else runs on the pool concurrently. Cancelling ctx
// aborts the campaign mid-flight: the returned error wraps ctx.Err() and
// the Result holds the partial measurement vector.
func (e *Engine) Run(ctx context.Context, req Request) (Result, error) {
	return e.run(ctx, 0, req)
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
			results[i], errs[i] = e.run(ctx, i, req)
		}(i, req)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// run executes req as batch member index, detouring through the
// checkpoint-replay harness when the Engine asks for it.
func (e *Engine) run(ctx context.Context, index int, req Request) (Result, error) {
	if e.replay && req.Resume == nil && req.OnCheckpoint == nil && req.Runs > 1 {
		return e.runReplay(ctx, index, req)
	}
	return e.runOnce(ctx, index, req)
}

// runReplay is the self-checking execution mode behind
// WithCheckpointReplay: run until the first checkpoint past the midpoint,
// cancel, round-trip the checkpoint through the wire codec, and resume.
// The completed Result must be — and the resume-check subtest of
// TestTrajectoryMatchesCommittedSnapshots asserts it is — bit-identical
// to a plain run.
//
// Event consumers see the two legs spliced into ONE campaign: the first
// leg's cancellation Finished and the second leg's Started are dropped,
// so the stream still carries exactly one CampaignStarted and one
// CampaignFinished per submitted request. Runs the first leg completed
// past the checkpoint frontier re-execute on the second leg and re-emit
// RunCompleted with bit-identical cycles; across the splice the Done
// counter may step back once (the strict monotonicity of a plain run is
// relaxed to per-leg monotonicity).
func (e *Engine) runReplay(ctx context.Context, index int, req Request) (Result, error) {
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
	// The legs are sub-Engines over the same pool. They filter the
	// splice-point events and forward the rest through e.emit, so
	// deliveries stay serialized with every other campaign on e.
	var fin *Event // leg 1's suppressed Finished; emitted from runOnce's own goroutine
	leg1 := &Engine{pool: e.Pool()}
	if e.events != nil {
		leg1.events = func(ev Event) {
			if ev.Kind == CampaignFinished {
				fin = &ev
				return
			}
			e.emit(ev)
		}
	}
	res1, err1 := leg1.runOnce(leg, index, first)
	cp := captured.Load()
	if cp == nil {
		// The campaign finished (or failed) before any checkpoint fired —
		// nothing to resume; the first leg already is the plain run. Emit
		// the Finished withheld by the filter to complete the stream.
		if fin != nil {
			e.emit(*fin)
		}
		return res1, err1
	}
	dec, err := DecodeCheckpoint(cp.Encode())
	if err != nil {
		return Result{Name: req.name()}, fmt.Errorf("core: checkpoint replay round trip: %w", err)
	}
	leg2 := &Engine{pool: e.Pool()}
	if e.events != nil {
		leg2.events = func(ev Event) {
			if ev.Kind != CampaignStarted {
				e.emit(ev)
			}
		}
	}
	second := req
	second.Resume = dec
	return leg2.runOnce(ctx, index, second)
}

// campaign is one Request in flight on an Engine: the identity its events
// carry and its completed-run counter.
type campaign struct {
	e     *Engine
	name  string
	kind  Kind
	index int
	total int
	done  atomic.Int64
}

// emit delivers ev stamped with the campaign's identity.
func (c *campaign) emit(ev Event) {
	ev.Campaign, ev.CampaignKind, ev.Index, ev.Total = c.name, c.kind, c.index, c.total
	c.e.emit(ev)
}

// ran counts one completed run and reports it as a RunCompleted event.
// The increment and the delivery share the event mutex so the Done
// counter in the event stream is strictly monotone. It is called once per
// run from the workers and allocates nothing.
func (c *campaign) ran(run int, x float64) {
	e := c.e
	if e.events == nil {
		c.done.Add(1)
		return
	}
	e.evmu.Lock()
	n := int(c.done.Add(1))
	e.events(Event{
		Kind: RunCompleted, Campaign: c.name, CampaignKind: c.kind, Index: c.index,
		Run: run, Cycles: x, Done: n, Total: c.total,
	})
	e.evmu.Unlock()
}

// phase marks a phase boundary for observers (latency attribution, trace
// spans). Like every event it is emitted off the replay path — at most
// three deliveries per campaign — and carries no timestamp: clocks stay
// with the observers, keeping this package deterministic.
func (c *campaign) phase(name string) {
	c.emit(Event{Kind: PhaseDone, Phase: name, Done: int(c.done.Load())})
}

// finish emits the campaign's one CampaignFinished (Err set on failure)
// and returns its outcome. Every submitted request ends here, so stream
// consumers can count completions without special-casing validation
// errors.
func (c *campaign) finish(res Result, err error) (Result, error) {
	c.emit(Event{Kind: CampaignFinished, Done: int(c.done.Load()), Err: err})
	return res, err
}

// aborted annotates a sweep's cancellation with the runs completed by
// then; the error still wraps ctx.Err().
func (c *campaign) aborted(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("core: campaign %s aborted after %d/%d runs: %w", c.name, c.done.Load(), c.total, err)
	}
	return err
}

// plan is what sets one campaign kind apart on the shared campaign loop
// of runOnce: its one-time build and the per-run step its workers
// execute. Everything else (the streaming accumulators, the in-order
// frontier, checkpoint capture and resume, cancellation and events) is
// common to every kind.
type plan struct {
	// build runs once per campaign under a pool slot; nil builds nothing
	// (and emits no compile phase).
	build func() error
	// worker returns one worker's private execution state as its step;
	// it runs after build.
	worker func() (step, error)
	// spec and rounds are set for security campaigns: the normalized
	// attack and the per-round outputs the steps fill, which the
	// completed campaign aggregates.
	spec   security.Spec
	rounds []security.RoundOut
}

// step executes one run on a worker's private state and returns its
// measurement, adding the run's cache counters, if it has any, to lv.
type step func(run int, lv *LevelStats) float64

// timingPlan returns the MBPTA or baseline part of the campaign loop.
// The build compiles the workload once (relocatably for the baseline)
// and records the MBPTA trace accounting in res; a multicore campaign
// (Request.CoRunners) compiles every co-runner once as well.
func timingPlan(req Request, name string, res *Result) (plan, error) {
	if req.Workload.Build == nil {
		return plan{}, errors.New("core: campaign needs a workload")
	}
	if req.Baseline && len(req.CoRunners) > 0 {
		return plan{}, errors.New("core: CoRunners do not apply to baseline campaigns")
	}
	layout := workload.DefaultLayout()
	if req.Baseline {
		layout = workload.BaselineLayout()
	}
	if req.Layout != nil {
		layout = *req.Layout
	}
	// compile builds w at the campaign layout and compiles it once per
	// campaign: the trace is fixed while only seeds change, so all workers
	// share one read-only Compiled and each run materializes its index
	// plans from it (the campaign hot path). The subject's trace
	// accounting goes to res.
	compile := func(w workload.Workload, subject bool) (*trace.Compiled, error) {
		tr := w.Build(layout)
		if len(tr) == 0 {
			return nil, fmt.Errorf("core: workload %s built an empty trace", w.Name)
		}
		if subject {
			f, l, st := tr.Counts()
			res.Trace.Accesses = len(tr)
			res.Trace.Fetches, res.Trace.Loads, res.Trace.Stores = f, l, st
		}
		ct, err := trace.Compile(tr, req.Spec.LineBytes)
		if err != nil {
			return nil, fmt.Errorf("core: campaign %s: %w", name, err)
		}
		return ct, nil
	}
	var do func(p *sim.Core, run int) sim.Result
	var cores []*trace.Compiled // multicore: one compiled program per core, nil when idle
	build := func() error {
		if req.Baseline {
			// Layouts change per run, the program does not: compile once at
			// the base layout and relocate the line tables per run.
			rel, err := req.Workload.Relocatable(layout, req.Spec.LineBytes)
			if err != nil {
				return fmt.Errorf("core: campaign %s: %w", name, err)
			}
			if rel.Len() == 0 {
				return fmt.Errorf("core: workload %s built an empty trace", req.Workload.Name)
			}
			do = func(p *sim.Core, run int) sim.Result {
				seed := prng.Derive(req.MasterSeed^hwmSeedTag, run)
				ct := rel.Relocate(workload.RandomizedLayoutFrom(layout, prng.New(seed)))
				// Reseed rather than Flush: deterministic policies ignore the
				// seed (so the typical modulo+LRU baseline is unchanged), while
				// any randomized policy in Spec becomes a pure function of the
				// run index instead of carrying PRNG state across runs.
				p.Reseed(seed)
				return p.RunCompiled(ct)
			}
			return nil
		}
		ct, err := compile(req.Workload, true)
		if err != nil {
			return err
		}
		if len(req.CoRunners) > 0 {
			cores = append(cores, ct)
			for _, w := range req.CoRunners {
				var cw *trace.Compiled
				if w.Build != nil {
					if cw, err = compile(w, false); err != nil {
						return err
					}
				}
				cores = append(cores, cw)
			}
			return nil
		}
		do = func(p *sim.Core, run int) sim.Result {
			p.Reseed(prng.Derive(req.MasterSeed, run))
			return p.RunCompiled(ct)
		}
		return nil
	}
	// Each worker builds its own platform from the spec (simulators are
	// not safe for concurrent use): one core, or a multicore campaign's
	// shared-bus system.
	worker := func() (step, error) {
		if cores != nil {
			sys, err := sim.NewSystem(req.Spec.Config(), len(cores))
			if err != nil {
				return nil, err
			}
			return func(run int, lv *LevelStats) float64 {
				sys.Reseed(prng.Derive(req.MasterSeed, run))
				r := sys.RunAll(cores)[0]
				lv.add(r)
				return float64(r.Cycles)
			}, nil
		}
		p, err := req.Spec.Build()
		if err != nil {
			return nil, err
		}
		return func(run int, lv *LevelStats) float64 {
			r := do(p, run)
			lv.add(r)
			return float64(r.Cycles)
		}, nil
	}
	return plan{build: build, worker: worker}, nil
}

// runOnce executes req once: every campaign kind runs through this one
// loop. On cancellation the returned error wraps ctx.Err() (so
// errors.Is(err, context.Canceled) holds) and the Result carries the
// partial measurement vector.
func (e *Engine) runOnce(ctx context.Context, index int, req Request) (Result, error) {
	c := &campaign{e: e, name: req.name(), kind: req.Kind(), index: index, total: req.Runs}
	res := Result{Name: c.name}
	c.emit(Event{Kind: CampaignStarted})
	if req.Runs < 1 {
		return c.finish(res, errors.New("core: campaign needs at least one run"))
	}
	var p plan
	var err error
	if req.Security != nil {
		p, err = securityPlan(req)
	} else {
		p, err = timingPlan(req, c.name, &res)
	}
	if err != nil {
		return c.finish(res, err)
	}
	if p.build != nil {
		if err := e.buildOnce(ctx, c.name, p.build); err != nil {
			return c.finish(res, err)
		}
		c.phase(PhaseCompile)
	}

	// All aggregates stream through the campaign accumulator; the buffered
	// vector is only allocated when the caller wants it back.
	acc := newCampaignAccum(req.Runs)
	acc.meta = ckptMeta{kind: c.kind, seed: req.MasterSeed, keepTimes: req.KeepTimes}
	if e.events != nil && c.kind != KindSecurity { // snapshots carry timing statistics
		acc.advanced = func() {
			s := acc.snapshotLocked()
			c.emit(Event{Kind: SnapshotTaken, Snapshot: &s, Done: s.Runs})
		}
	}
	if req.CheckpointEvery > 0 && req.OnCheckpoint != nil {
		acc.every = req.CheckpointEvery
		acc.checkpoint = func() { req.OnCheckpoint(acc.checkpointLocked()) }
	}
	var times []float64
	if req.KeepTimes == TimesKeep {
		times = make([]float64, req.Runs)
	}
	acc.times, acc.rounds = times, p.rounds
	start := 0
	if req.Resume != nil {
		if err := req.Resume.Validate(req); err != nil {
			return c.finish(res, err)
		}
		acc.restore(req.Resume)
		start = req.Resume.Frontier
		c.done.Store(int64(start))
	}

	// Each worker streams its chunk's measurements into a chunk-local
	// accumulator (and into times[run] when the caller keeps the vector).
	// The per-level counters ride the same chunks: integer sums are
	// order-independent, and the frontier merges them in run order, so
	// every checkpoint's counters match its frontier.
	err = shardRuns(ctx, e.Pool(), start, req.Runs, p.worker, func(do step, lo, hi int) error {
		ca := acc.newChunk(lo, hi)
		for run := lo; run < hi; run++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			x := do(run, &ca.levels)
			if times != nil {
				times[run] = x
			}
			if run < len(acc.window) {
				acc.window[run] = x
			}
			ca.add(run, x)
			c.ran(run, x)
		}
		acc.commit(ca)
		return nil
	})
	res.Times = times
	res.Summary = acc.summary()
	if err != nil {
		return c.finish(res, c.aborted(err))
	}
	totals := acc.levelsTotal()
	res.Levels = totals
	res.IL1Miss = totals.IL1.MissRatio()
	res.DL1Miss = totals.DL1.MissRatio()
	res.L2Miss = totals.L2.MissRatio()
	c.phase(PhaseReplay)

	if req.Analyze {
		// The analysis comes from the streaming accumulators; the vector
		// need not be kept (streaming_test.go pins it against the buffered
		// pipeline over the whole vector).
		an, err := acc.analysis()
		if err != nil {
			return c.finish(res, err)
		}
		res.Analysis = &an
		c.phase(PhaseAnalyze)
	}
	if p.rounds != nil {
		agg := security.Aggregate(p.spec, p.rounds)
		res.Security = &agg
	}
	return c.finish(res, nil)
}

// buildOnce runs a campaign's one-time trace build and compilation under
// a pool slot: a large RunBatch spawns one goroutine per request, and
// without the gate they would all build concurrently regardless of the
// pool size. A panic in build fails the campaign with a *PanicError, and
// the slot is released either way.
func (e *Engine) buildOnce(ctx context.Context, name string, build func() error) error {
	p := e.Pool()
	if err := p.acquire(ctx); err != nil {
		return fmt.Errorf("core: campaign %s aborted before any runs: %w", name, err)
	}
	defer p.release()
	return protect(build)
}
