package service

import (
	"sync"
	"time"

	"repro/internal/core"
)

// JobState is the lifecycle of a submitted campaign.
type JobState int

// Job lifecycle states.
const (
	// JobQueued: admitted, waiting for a job worker.
	JobQueued JobState = iota
	// JobRunning: executing on the shared Engine.
	JobRunning
	// JobDone: completed; Result is available (and cached).
	JobDone
	// JobFailed: the campaign errored (validation, empty trace, ...).
	JobFailed
	// JobCanceled: aborted by server drain before completion.
	JobCanceled
)

// String names the state for wire status fields.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return "unknown"
}

// eventBuffer is the per-subscriber channel depth. Run events beyond it
// are dropped (the Engine sink must never block); the stream's final
// status line is delivered out of band via done, so a slow reader loses
// intermediate progress, never the outcome.
const eventBuffer = 256

// Job is one admitted campaign: the canonical execution (and later the
// cached result) for its fingerprint. Duplicate submissions coalesce onto
// the same Job, so its ID is what every submitter of equal content sees.
type Job struct {
	// ID is the stable handle of the job ("c-000042").
	ID string
	// Fingerprint is the content address of the normalized request.
	Fingerprint string
	// Wire is the normalized request as admitted.
	Wire core.WireRequest
	// req is the resolved executable request; its Name is the fingerprint
	// so Engine events route back to this job unambiguously (at most one
	// job per fingerprint is ever in flight).
	req core.Request

	Submitted time.Time

	// The outcome is held in wire form, whether the job executed or was
	// served from the durable store: the status endpoint and the durable
	// tier serve these values as they are.
	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	result   *resultJSON
	err      error
	runsDone int
	snapshot *snapshotJSON // latest streaming snapshot (nil before the first)
	subs     map[chan core.Event]struct{}
	done     chan struct{} // closed exactly once on done/failed/canceled
}

func newJob(id, fp string, wire core.WireRequest, req core.Request, now time.Time) *Job {
	req.Name = fp
	return &Job{
		ID: id, Fingerprint: fp, Wire: wire, req: req,
		Submitted: now,
		subs:      make(map[chan core.Event]struct{}),
		done:      make(chan struct{}),
	}
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot returns the fields a status response needs, consistently.
func (j *Job) Snapshot() (state JobState, runsDone int, result *resultJSON, snapshot *snapshotJSON, err error, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.runsDone, j.result, j.snapshot, j.err, j.started, j.finished
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress returns the latest streaming snapshot the campaign published
// (nil before the first chunk merges). Snapshots keep converging while the
// campaign runs and the last one — covering every run — survives
// completion, so pollers of GET /v1/campaigns/{id} watch the pWCET
// estimate settle without subscribing to the event stream.
func (j *Job) Progress() *snapshotJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshot
}

// start marks the job running.
func (j *Job) start(now time.Time) {
	j.mu.Lock()
	j.state = JobRunning
	j.started = now
	j.mu.Unlock()
}

// finish records the outcome (res, in wire form, is nil unless the
// campaign completed) and releases every stream. canceled distinguishes
// a server drain from a campaign failure.
func (j *Job) finish(res *resultJSON, err error, canceled bool, now time.Time) {
	j.mu.Lock()
	j.finished = now
	switch {
	case err == nil:
		j.state = JobDone
		j.result = res
		j.runsDone = res.Runs
	case canceled:
		j.state = JobCanceled
		j.err = err
	default:
		j.state = JobFailed
		j.err = err
	}
	close(j.done)
	j.mu.Unlock()
}

// finishFromDisk completes the job from a persisted result without any
// execution: the durable store's answer for this fingerprint. The job
// goes straight from created to done — it was never enqueued.
func (j *Job) finishFromDisk(pr *persistedResult, now time.Time) {
	j.mu.Lock()
	j.snapshot = pr.Snapshot
	j.mu.Unlock()
	j.finish(pr.Result, nil, false, now)
}

// publish fans an Engine event out to the subscribers. Sends never block:
// a full subscriber buffer drops the event (see eventBuffer). Called from
// the Engine's serialized sink path, so it must stay fast.
func (j *Job) publish(ev core.Event) {
	// Expose the display label, not the routing fingerprint.
	ev.Campaign = j.Wire.Label()
	j.mu.Lock()
	if ev.Kind == core.RunCompleted {
		j.runsDone = ev.Done
	}
	if ev.Kind == core.SnapshotTaken && ev.Snapshot != nil {
		j.snapshot = snapshotOf(ev.Snapshot)
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe registers a live event channel; drop it with unsubscribe.
func (j *Job) subscribe() chan core.Event {
	ch := make(chan core.Event, eventBuffer)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan core.Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}
