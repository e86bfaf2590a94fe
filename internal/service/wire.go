package service

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/security"
)

// submitResponse answers POST /v1/campaigns.
type submitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	// Cached reports that the submission was served by an existing job
	// (a finished cached result, or coalescing onto an in-flight
	// duplicate) instead of scheduling a fresh execution.
	Cached bool `json:"cached"`
}

// statusResponse answers GET /v1/campaigns/{id}.
type statusResponse struct {
	ID          string           `json:"id"`
	Fingerprint string           `json:"fingerprint"`
	Request     core.WireRequest `json:"request"`
	State       string           `json:"state"`
	RunsDone    int              `json:"runs_done"`
	Submitted   time.Time        `json:"submitted"`
	Started     *time.Time       `json:"started,omitempty"`
	Finished    *time.Time       `json:"finished,omitempty"`
	Error       string           `json:"error,omitempty"`
	// Snapshot is the latest converging view of the streaming accumulators:
	// present as soon as the first chunk of runs merges, updated while the
	// campaign runs (watch the pWCET estimates settle), and retained after
	// completion (where it covers every run).
	Snapshot *snapshotJSON `json:"snapshot,omitempty"`
	Result   *resultJSON   `json:"result,omitempty"`
}

// snapshotJSON is the wire form of a core.Snapshot.
type snapshotJSON struct {
	Runs       int     `json:"runs"`
	Total      int     `json:"total"`
	Mean       float64 `json:"mean"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	P99        float64 `json:"p99"`
	Blocks     int     `json:"blocks,omitempty"`
	PWCET12    float64 `json:"pwcet_1e12,omitempty"`
	PWCET15    float64 `json:"pwcet_1e15,omitempty"`
	AccumBytes int     `json:"accum_bytes"`
}

func snapshotOf(s *core.Snapshot) *snapshotJSON {
	if s == nil {
		return nil
	}
	return &snapshotJSON{
		Runs: s.Runs, Total: s.Total,
		Mean: s.Mean, Min: s.Min, Max: s.Max,
		P50: s.P50, P95: s.P95, P99: s.P99,
		Blocks: s.Blocks, PWCET12: s.PWCET12, PWCET15: s.PWCET15,
		AccumBytes: s.AccumBytes,
	}
}

// resultJSON is the wire form of a core.Result. Times is omitted for
// keep_times=false campaigns; Runs always reports the campaign size (from
// the streaming summary when the vector was dropped).
type resultJSON struct {
	Name    string    `json:"name"`
	Runs    int       `json:"runs"`
	HWM     float64   `json:"hwm"`
	Mean    float64   `json:"mean"`
	IL1Miss float64   `json:"il1_miss"`
	DL1Miss float64   `json:"dl1_miss"`
	L2Miss  float64   `json:"l2_miss"`
	Times   []float64 `json:"times,omitempty"`
	Trace   struct {
		Accesses int `json:"accesses"`
		Fetches  int `json:"fetches"`
		Loads    int `json:"loads"`
		Stores   int `json:"stores"`
	} `json:"trace"`
	Analysis *analysisJSON `json:"analysis,omitempty"`
	// Security carries the attack aggregate for security campaigns; the
	// security.Result type already defines its wire form.
	Security *security.Result `json:"security,omitempty"`
}

// analysisJSON is the wire form of the MBPTA pipeline output, with the
// pWCET quantiles the paper reports.
type analysisJSON struct {
	WWStat     float64 `json:"ww_stat"`
	WWPass     bool    `json:"ww_pass"`
	KSP        float64 `json:"ks_p"`
	KSPass     bool    `json:"ks_pass"`
	ETP        float64 `json:"et_p"`
	ETPass     bool    `json:"et_pass"`
	IIDPass    bool    `json:"iid_pass"`
	GumbelMu   float64 `json:"gumbel_mu"`
	GumbelBeta float64 `json:"gumbel_beta"`
	Block      int     `json:"block"`
	PWCET12    float64 `json:"pwcet_1e12"`
	PWCET15    float64 `json:"pwcet_1e15"`
}

func analysisOf(a *core.Analysis) *analysisJSON {
	if a == nil {
		return nil
	}
	return &analysisJSON{
		WWStat: a.WW.Stat, WWPass: a.WW.Pass,
		KSP: a.KS.P, KSPass: a.KS.Pass,
		ETP: a.ET.P, ETPass: a.ET.Pass,
		IIDPass:  a.IIDPass,
		GumbelMu: a.Model.Fit.Mu, GumbelBeta: a.Model.Fit.Beta, Block: a.Model.Block,
		PWCET12: a.PWCET12, PWCET15: a.PWCET15,
	}
}

func resultOf(res *core.Result) *resultJSON {
	runs := len(res.Times)
	if runs == 0 {
		runs = int(res.Summary.Moments.N)
	}
	out := &resultJSON{
		Name:     res.Name,
		Runs:     runs,
		HWM:      res.HWM(),
		Mean:     res.Mean(),
		IL1Miss:  res.IL1Miss,
		DL1Miss:  res.DL1Miss,
		L2Miss:   res.L2Miss,
		Times:    res.Times,
		Analysis: analysisOf(res.Analysis),
		Security: res.Security,
	}
	out.Trace.Accesses = res.Trace.Accesses
	out.Trace.Fetches = res.Trace.Fetches
	out.Trace.Loads = res.Trace.Loads
	out.Trace.Stores = res.Trace.Stores
	return out
}

func statusOf(j *Job) statusResponse {
	state, runsDone, result, snapshot, err, started, finished := j.Snapshot()
	out := statusResponse{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		Request:     j.Wire,
		State:       state.String(),
		RunsDone:    runsDone,
		Submitted:   j.Submitted,
		Snapshot:    snapshot,
		Result:      result,
	}
	if !started.IsZero() {
		out.Started = &started
	}
	if !finished.IsZero() {
		out.Finished = &finished
	}
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

// wireEvent is one NDJSON line of GET /v1/campaigns/{id}/events: the wire
// form of a core.Event, plus the synthetic terminal line (kind "end",
// with the job's final state).
type wireEvent struct {
	Kind     string  `json:"kind"` // "started", "run", "phase", "snapshot", "finished", "end"
	Campaign string  `json:"campaign"`
	Phase    string  `json:"phase,omitempty"` // "phase" lines only
	Run      int     `json:"run,omitempty"`
	Cycles   float64 `json:"cycles,omitempty"`
	Done     int     `json:"done"`
	Total    int     `json:"total,omitempty"`
	// Snapshot carries the converging statistics on "snapshot" lines.
	Snapshot *snapshotJSON `json:"snapshot,omitempty"`
	State    string        `json:"state,omitempty"` // "end" lines only
	Err      string        `json:"error,omitempty"`
}

func wireEventOf(ev core.Event) wireEvent {
	out := wireEvent{
		Kind:     ev.Kind.String(),
		Campaign: ev.Campaign,
		Phase:    ev.Phase,
		Run:      ev.Run,
		Cycles:   ev.Cycles,
		Done:     ev.Done,
		Total:    ev.Total,
		Snapshot: snapshotOf(ev.Snapshot),
	}
	if ev.Err != nil {
		out.Err = ev.Err.Error()
	}
	return out
}

// policyJSON is one row of GET /v1/policies.
type policyJSON struct {
	Name       string   `json:"name"`
	Aliases    []string `json:"aliases,omitempty"`
	Randomized bool     `json:"randomized"`
}

// kindsJSON answers GET /v1/kinds: the campaign families the service
// executes and the vocabulary of the security family's knobs, so clients
// can discover valid submissions without trial-and-error 400s.
type kindsJSON struct {
	Kinds        []string `json:"kinds"`
	Protocols    []string `json:"security_protocols"`
	Replacements []string `json:"security_replacements"`
}

// workloadJSON is one row of GET /v1/workloads.
type workloadJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// healthJSON answers GET /healthz.
type healthJSON struct {
	Status        string     `json:"status"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	Workers       int        `json:"workers"`
	JobSlots      int        `json:"job_slots"`
	Queue         queueJSON  `json:"queue"`
	Jobs          jobCounts  `json:"jobs"`
	Cache         StoreStats `json:"cache"`
	// Disk reports the durable tier (absent when -data-dir is unset).
	Disk *DiskStats `json:"disk,omitempty"`
}

// queueJSON reports the job queue's occupancy against its bound.
type queueJSON struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// tracesJSON answers GET /v1/traces: the retained campaign trace spans
// (newest first) and how many were ever recorded.
type tracesJSON struct {
	Total  uint64              `json:"total"`
	Traces []obs.CampaignTrace `json:"traces"`
}

// jobCounts breaks the resident jobs down by state.
type jobCounts struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// persistedResult is the durable form of a completed campaign, stored
// under results/<fingerprint>.rmr: the admitted wire request plus the
// same wire-form result and final snapshot the status endpoint serves,
// so a disk hit answers exactly like the original execution did.
type persistedResult struct {
	Wire     core.WireRequest `json:"wire"`
	Result   *resultJSON      `json:"result"`
	Snapshot *snapshotJSON    `json:"snapshot,omitempty"`
}

// persistedCheckpoint is the durable form of an in-flight campaign's
// latest streaming frontier, stored under checkpoints/<fingerprint>.rmc:
// the wire request (so a restarting server can resubmit it) plus the
// core checkpoint blob (magic + payload + SHA-256; see core.Checkpoint),
// base64-encoded by encoding/json.
type persistedCheckpoint struct {
	Wire       core.WireRequest `json:"wire"`
	Checkpoint []byte           `json:"checkpoint"`
}
