package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/security"
	"repro/internal/workload"
)

// Config sizes the campaign service. The zero value is usable: every
// field falls back to the default documented on it.
type Config struct {
	// Workers sizes the shared simulation pool (0 = GOMAXPROCS).
	Workers int
	// Jobs is the number of campaigns executing concurrently (default 2).
	// Simulation parallelism within a campaign comes from Workers; Jobs
	// only bounds how many campaigns contend for that pool at once.
	Jobs int
	// QueueDepth bounds the admitted-but-not-running backlog (default
	// 64). A full queue rejects submissions with 429 and a Retry-After
	// hint; 503 is the answer of a draining server.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache (default 1024
	// entries, LRU-evicted).
	CacheSize int
	// DefaultRuns is applied to submissions that omit runs (default 300).
	DefaultRuns int
	// MaxRuns rejects larger submissions (default 100000).
	MaxRuns int
	// DataDir enables the durable tier: completed results and in-flight
	// checkpoints persist under this directory (see DiskStore for the
	// layout), repeat submissions are served from disk across restarts,
	// and campaigns interrupted by a crash resume from their latest
	// checkpoint on startup. Empty keeps the service memory-only.
	DataDir string
	// CheckpointEvery is the checkpoint cadence in runs for persisted
	// campaigns (default 50). Only meaningful with DataDir.
	CheckpointEvery int
	// fs is the filesystem the durable tier runs on (default osFS). The
	// resilience tests inject storage faults here.
	fs fileSystem
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.DefaultRuns <= 0 {
		c.DefaultRuns = 300
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 100000
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50
	}
	if c.fs == nil {
		c.fs = osFS{}
	}
	return c
}

// Server is the campaign service: one shared core.Engine, a bounded job
// queue in front of it, and a content-addressed Store that serves repeat
// submissions in O(1) and coalesces concurrent duplicates onto a single
// execution. Build one with New, mount Handler on an http.Server, and
// Close it to drain.
type Server struct {
	cfg   Config
	eng   *core.Engine
	store *Store
	// disk is the durable tier (nil when Config.DataDir is empty).
	disk *DiskStore

	// Durability counters (see registerMetrics for their wire names).
	ckptWrites      atomic.Uint64
	ckptResumes     atomic.Uint64
	ckptCorruptions atomic.Uint64

	baseCtx context.Context
	cancel  context.CancelFunc

	queue chan *Job
	// slots is the admission semaphore: a token is reserved before a job
	// may be created and held until a worker pops it from the queue (or
	// released on coalescing), so a queue send can never block and an
	// admission never has to be undone -- the fix for the classic
	// "create, fail to enqueue, delete while someone coalesced" race.
	slots chan struct{}
	wg    sync.WaitGroup

	// closeMu serializes admissions against Close: Submit holds the read
	// side for its whole admission, Close takes the write side to flip
	// accepting, so no submission can slip a job into the queue after
	// Close has drained it.
	closeMu sync.RWMutex

	jobsMu sync.RWMutex
	jobs   map[string]*Job // by Job.ID

	seq       atomic.Uint64
	accepting atomic.Bool
	started   time.Time

	// Observability: one registry per server, an engine collector feeding
	// it (and the trace ring), and the service-level instruments.
	reg         *obs.Registry
	collector   *obs.EngineCollector
	queueWait   *obs.Histogram
	jobsRunning *obs.Gauge
}

// New builds the service and starts its job workers. The caller owns the
// HTTP listener; Close drains the service. With Config.DataDir set it
// also opens the durable store (the only error source) and resubmits
// every campaign that left a checkpoint behind, so a crashed server
// resumes its interrupted work on restart.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueDepth),
		slots:   make(chan struct{}, cfg.QueueDepth),
		started: time.Now(),
	}
	if cfg.DataDir != "" {
		disk, err := openDiskStore(cfg.fs, cfg.DataDir)
		if err != nil {
			return nil, fmt.Errorf("service: opening data dir: %w", err)
		}
		s.disk = disk
	}
	//rm:ctxroot server lifecycle root: jobs outlive the submitting request; Close cancels it on drain
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	// Lock order: store shard -> jobsMu (canEvict/onEvict run under the
	// shard lock); nothing acquires them the other way around.
	s.store = NewStore(cfg.CacheSize,
		func(v any) bool {
			st := v.(*Job).State()
			return st == JobDone || st == JobFailed || st == JobCanceled
		},
		func(_ string, v any) {
			j := v.(*Job)
			s.jobsMu.Lock()
			delete(s.jobs, j.ID)
			s.jobsMu.Unlock()
		})
	s.reg = obs.NewRegistry()
	s.collector = obs.NewEngineCollector(s.reg, nil)
	// Campaigns execute under their fingerprint as campaign name; resolve
	// trace spans back to the submitted display label, and keep the
	// fingerprint prefix on the span for store lookups.
	s.collector.Resolve = func(fp string) (string, string) {
		if v, ok := s.store.Peek(fp); ok {
			return v.(*Job).Wire.Label(), fp
		}
		return "", fp
	}
	s.eng = core.NewEngine(core.WithWorkers(cfg.Workers), core.WithEvents(s.collector.Sink(s.route)))
	obs.RegisterPool(s.reg, s.eng.Pool())
	s.registerMetrics()
	s.accepting.Store(true)
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.disk != nil {
		s.recoverFromDisk()
	}
	return s, nil
}

// recoverFromDisk resubmits every campaign that left a checkpoint behind
// (i.e. was interrupted mid-run by a crash). Each goes through the normal
// Submit path, which re-reads the checkpoint and attaches it as the
// resume point; a checkpoint whose stored request no longer parses is
// quarantined. Recovery is best effort: a full queue just leaves the
// checkpoint in place for the next restart.
func (s *Server) recoverFromDisk() {
	for _, fp := range s.disk.Checkpoints() {
		payload, ok := s.disk.GetCheckpoint(fp)
		if !ok {
			continue // corrupt: get already quarantined it
		}
		var pc persistedCheckpoint
		if err := json.Unmarshal(payload, &pc); err != nil {
			s.ckptCorruptions.Add(1)
			s.disk.QuarantineCheckpoint(fp)
			continue
		}
		_, _, _ = s.Submit(pc.Wire)
	}
}

// Engine exposes the shared engine (tests; embedding the service).
func (s *Server) Engine() *core.Engine { return s.eng }

// Store exposes the result cache (health reporting, tests).
func (s *Server) Store() *Store { return s.store }

// Close stops admissions, cancels in-flight campaigns via context, marks
// the queued backlog canceled, and waits for the job workers. Safe to
// call once the HTTP listener is shut down (or concurrently with it:
// late submissions get 503).
func (s *Server) Close() {
	// The write lock waits out any Submit in flight, so after the flip no
	// new job can reach the queue.
	s.closeMu.Lock()
	s.accepting.Store(false)
	s.closeMu.Unlock()
	s.cancel()
	s.wg.Wait()
	// Workers are gone; whatever is still queued will never start.
	for {
		select {
		case j := <-s.queue:
			j.finish(core.Result{}, errors.New("service: server shut down before the campaign started"), true, time.Now())
		default:
			return
		}
	}
}

// route is the Engine event sink: requests execute under their
// fingerprint as campaign name (unique among in-flight jobs by
// singleflight), so events map back to exactly one job.
func (s *Server) route(ev core.Event) {
	if v, ok := s.store.Peek(ev.Campaign); ok {
		v.(*Job).publish(ev)
	}
}

// worker executes queued jobs on the shared engine until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			<-s.slots // the job left the queue; free its admission slot
			start := time.Now()
			s.queueWait.Observe(start.Sub(j.Submitted).Nanoseconds())
			s.jobsRunning.Add(1)
			j.start(start)
			res, err := s.runJob(j)
			s.jobsRunning.Add(-1)
			canceled := err != nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
			if s.disk != nil {
				s.persistOutcome(j, res, err, canceled)
			}
			j.finish(res, err, canceled, time.Now())
		}
	}
}

// runJob executes one campaign on the shared engine. With the durable
// tier enabled it also streams checkpoints to disk while the campaign
// runs: the engine hands each captured frontier to a buffered latest-wins
// channel, and a dedicated writer goroutine persists them off the
// simulation's critical path (a slow disk delays durability, never the
// campaign).
func (s *Server) runJob(j *Job) (core.Result, error) {
	req := j.req
	if s.disk == nil {
		return s.eng.Run(s.baseCtx, req)
	}
	ckpts := make(chan *core.Checkpoint, 1)
	req.CheckpointEvery = s.cfg.CheckpointEvery
	req.OnCheckpoint = func(cp *core.Checkpoint) {
		for {
			select {
			case ckpts <- cp:
				return
			default:
				// Writer is behind: drop the stale pending frontier.
				select {
				case <-ckpts:
				default:
				}
			}
		}
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for cp := range ckpts {
			s.writeCheckpoint(j, cp)
		}
	}()
	res, err := s.eng.Run(s.baseCtx, req)
	// Run has returned, so no more OnCheckpoint calls can happen: the
	// engine invokes it synchronously from inside Run.
	close(ckpts)
	<-writerDone
	return res, err
}

// writeCheckpoint persists one captured frontier. Panics (in the
// filesystem, or anything unexpected in the codec) are
// contained here and counted as a failed write — a checkpoint is an
// optimization, so losing one must never take the campaign down.
func (s *Server) writeCheckpoint(j *Job, cp *core.Checkpoint) {
	defer func() {
		if recover() != nil {
			s.disk.writeErrors.Add(1)
		}
	}()
	payload, err := json.Marshal(persistedCheckpoint{Wire: j.Wire, Checkpoint: cp.Encode()})
	if err != nil {
		return
	}
	if s.disk.PutCheckpoint(j.Fingerprint, payload) == nil {
		s.ckptWrites.Add(1)
	}
}

// persistOutcome records a finished campaign in the durable tier: a
// success persists the result and retires the checkpoint; a hard failure
// retires the checkpoint (the failure is deterministic, resuming would
// only fail again); a cancellation keeps the checkpoint so the campaign
// resumes after restart. Runs in the job worker before finish, so a job
// reports its terminal state only once that state is durable: whoever
// sees a job done finds its result persisted and its checkpoint retired.
func (s *Server) persistOutcome(j *Job, res core.Result, err error, canceled bool) {
	defer func() {
		if recover() != nil {
			s.disk.writeErrors.Add(1)
		}
	}()
	switch {
	case err == nil:
		res.Name = j.Wire.Label()
		payload, merr := json.Marshal(persistedResult{
			Wire:     j.Wire,
			Result:   resultOf(&res),
			Snapshot: snapshotOf(j.Progress()),
		})
		if merr == nil && s.disk.PutResult(j.Fingerprint, payload) == nil {
			s.disk.DeleteCheckpoint(j.Fingerprint)
		}
	case canceled:
		// Keep the checkpoint: this campaign resumes on restart.
	default:
		s.disk.DeleteCheckpoint(j.Fingerprint)
	}
}

// Submit admits one wire request: normalize, fingerprint, coalesce onto
// an existing job or enqueue a new one. The returned bool reports whether
// the submission was served by an existing job (cache hit or in-flight
// coalescing) rather than a fresh execution.
func (s *Server) Submit(wire core.WireRequest) (*Job, bool, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if !s.accepting.Load() {
		return nil, false, errUnavailable{"server is draining"}
	}
	if wire.Runs == 0 {
		wire.Runs = s.cfg.DefaultRuns
	}
	norm, err := wire.Normalize()
	if err != nil {
		return nil, false, errBadRequest{err.Error()}
	}
	if norm.Runs > s.cfg.MaxRuns {
		return nil, false, errBadRequest{fmt.Sprintf("runs %d exceeds the server limit %d", norm.Runs, s.cfg.MaxRuns)}
	}
	req, err := norm.Request()
	if err != nil {
		return nil, false, errBadRequest{err.Error()}
	}
	fp, err := norm.Fingerprint()
	if err != nil {
		return nil, false, errBadRequest{err.Error()}
	}

	// Reserve the admission slot before creating anything: if the queue
	// is at capacity the submission is refused up front, so a created
	// job always reaches the queue and is never retracted (a retraction
	// would race with a duplicate coalescing onto it).
	select {
	case s.slots <- struct{}{}:
	default:
		return nil, false, errBusy{"job queue full, retry later"}
	}
	v, created := s.store.GetOrCreate(fp, func() any {
		id := fmt.Sprintf("c-%06d", s.seq.Add(1))
		j := newJob(id, fp, norm, req, time.Now())
		s.jobsMu.Lock()
		s.jobs[id] = j
		s.jobsMu.Unlock()
		return j
	})
	job := v.(*Job)
	if !created {
		<-s.slots // coalesced: nothing was enqueued, free the slot
		return job, true, nil
	}
	if s.disk != nil && s.attachDiskState(job) {
		<-s.slots // served from disk: nothing to enqueue
		return job, true, nil
	}
	// Cannot block: every resident queue entry holds a slot token, and
	// this admission holds one too, so there is room by construction.
	s.queue <- job
	return job, false, nil
}

// attachDiskState consults the durable tier for a freshly created job.
// A persisted result finishes the job immediately (true: nothing to
// execute); a persisted checkpoint that still validates against the
// request is attached as the resume point. Anything corrupt is
// quarantined and the campaign recomputes from scratch — disk damage
// degrades to work, never to a wrong or missing answer.
func (s *Server) attachDiskState(j *Job) bool {
	if payload, ok := s.disk.GetResult(j.Fingerprint); ok {
		var pr persistedResult
		if err := json.Unmarshal(payload, &pr); err == nil && pr.Result != nil {
			j.finishFromDisk(&pr, time.Now())
			return true
		}
		s.ckptCorruptions.Add(1)
		s.disk.quarantine(diskResultsDir, j.Fingerprint+diskResultExt)
	}
	if payload, ok := s.disk.GetCheckpoint(j.Fingerprint); ok {
		quarantine := func() {
			s.ckptCorruptions.Add(1)
			s.disk.QuarantineCheckpoint(j.Fingerprint)
		}
		var pc persistedCheckpoint
		if err := json.Unmarshal(payload, &pc); err != nil {
			quarantine()
			return false
		}
		cp, err := core.DecodeCheckpoint(pc.Checkpoint)
		if err != nil {
			quarantine()
			return false
		}
		if err := cp.Validate(j.req); err != nil {
			// Valid blob, wrong campaign: a fingerprint collision is
			// content-addressing breakage, so treat it as corruption.
			quarantine()
			return false
		}
		j.req.Resume = cp
		s.ckptResumes.Add(1)
	}
	return false
}

// JobByID returns a job by its handle.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.jobsMu.RLock()
	defer s.jobsMu.RUnlock()
	j, ok := s.jobs[id]
	return j, ok
}

// errBadRequest, errUnavailable and errBusy map service errors to HTTP
// statuses: 400, 503, and 429 with a Retry-After hint respectively. A
// full queue is errBusy — transient pressure the client should back off
// and retry — while a draining server is errUnavailable, since retrying
// against the same instance is pointless.
type errBadRequest struct{ msg string }

func (e errBadRequest) Error() string { return e.msg }

type errUnavailable struct{ msg string }

func (e errUnavailable) Error() string { return e.msg }

type errBusy struct{ msg string }

func (e errBusy) Error() string { return e.msg }

// retryAfterSeconds is the backoff hint on 429 responses.
const retryAfterSeconds = 1

// Handler returns the /v1 campaign API plus /healthz and the
// observability endpoints: GET /metrics (Prometheus text format) and
// GET /v1/traces (recent campaign trace spans). Every API route is
// instrumented with per-route latency and request counters; /metrics
// itself is not, so scrapes do not measure themselves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.instrument("/v1/campaigns", s.handleSubmit))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.instrument("/v1/campaigns/{id}", s.handleStatus))
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.instrument("/v1/campaigns/{id}/events", s.handleEvents))
	mux.HandleFunc("GET /v1/policies", s.instrument("/v1/policies", s.handlePolicies))
	mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", s.handleWorkloads))
	mux.HandleFunc("GET /v1/kinds", s.instrument("/v1/kinds", s.handleKinds))
	mux.HandleFunc("GET /v1/traces", s.instrument("/v1/traces", s.handleTraces))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.Handle("GET /metrics", s.reg)
	return mux
}

// maxBodyBytes bounds campaign submissions; a full Layout is well under
// 1KB, so 64KB leaves generous headroom.
const maxBodyBytes = 64 << 10

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch err.(type) {
	case errBadRequest:
		status = http.StatusBadRequest
	case errUnavailable:
		status = http.StatusServiceUnavailable
	case errBusy:
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wire, err := core.DecodeWireRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, errBadRequest{err.Error()})
		return
	}
	job, coalesced, err := s.Submit(wire)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if coalesced {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{
		ID:          job.ID,
		Fingerprint: job.Fingerprint,
		State:       job.State().String(),
		Cached:      coalesced,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown campaign id"})
		return
	}
	writeJSON(w, http.StatusOK, statusOf(job))
}

// handleEvents streams the job's live core.Events as NDJSON, one JSON
// object per line, terminated by a line of kind "end" when the job
// reaches a terminal state (immediately, for an already-finished job).
// The stream also ends when the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown campaign id"})
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	writeLine := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// Subscribe before inspecting state so no completion slips between
	// the check and the subscription.
	ch := job.subscribe()
	defer job.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !writeLine(wireEventOf(ev)) {
				return
			}
		case <-job.Done():
			// Drain whatever the subscription already buffered, then
			// close with the terminal line.
			for {
				select {
				case ev := <-ch:
					if !writeLine(wireEventOf(ev)) {
						return
					}
					continue
				default:
				}
				break
			}
			state, _, _, jerr, _, _ := job.Snapshot()
			end := wireEvent{Kind: "end", Campaign: job.Wire.Label(), State: state.String()}
			if jerr != nil {
				end.Err = jerr.Error()
			}
			writeLine(end)
			return
		}
	}
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	var out []policyJSON
	for _, kind := range placement.Kinds() {
		p, err := placement.New(kind, 128)
		if err != nil {
			continue
		}
		out = append(out, policyJSON{
			Name:       kind.String(),
			Aliases:    placement.Aliases(kind),
			Randomized: p.Randomized(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	repl := cache.ReplacementKinds()
	names := make([]string, len(repl))
	for i, k := range repl {
		names[i] = k.String()
	}
	writeJSON(w, http.StatusOK, kindsJSON{
		Kinds:        core.KindNames(),
		Protocols:    security.ProtocolNames(),
		Replacements: names,
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadJSON
	for _, wl := range workload.All() {
		out = append(out, workloadJSON{Name: wl.Name, Description: wl.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.RLock()
	var queued, running, done, failed, canceled int
	for _, j := range s.jobs {
		switch j.State() {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		case JobDone:
			done++
		case JobFailed:
			failed++
		case JobCanceled:
			canceled++
		}
	}
	s.jobsMu.RUnlock()
	status := "ok"
	if !s.accepting.Load() {
		status = "draining"
	}
	out := healthJSON{
		Status:        status,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.eng.Workers(),
		JobSlots:      s.cfg.Jobs,
		Queue:         queueJSON{Depth: len(s.queue), Capacity: s.cfg.QueueDepth},
		Jobs:          jobCounts{Queued: queued, Running: running, Done: done, Failed: failed, Canceled: canceled},
		Cache:         s.store.Stats(),
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		out.Disk = &ds
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraces serves the most recent campaign trace spans, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, tracesJSON{
		Total:  s.collector.Tracer().Total(),
		Traces: s.collector.Tracer().Recent(),
	})
}
