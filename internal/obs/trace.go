package obs

import (
	"sync"
	"time"
)

// CampaignTrace is one completed campaign's trace span: what the engine
// spent its wall time on, phase by phase. Phases are recorded from the
// Engine's event stream at phase boundaries (compile → replay → analyze),
// so the replay kernels themselves stay untouched; phases a campaign does
// not have (security campaigns without a victim workload compile nothing
// and never analyze) stay zero.
type CampaignTrace struct {
	// Campaign is the display label of the campaign.
	Campaign string `json:"campaign"`
	// Fingerprint is a prefix of the content fingerprint when the
	// producer knows it (the service resolves it per job; CLI runs
	// leave it empty).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Kind is the campaign family ("mbpta", "baseline", "security").
	Kind string `json:"kind"`
	// Runs is the campaign size in runs (attack rounds for security).
	Runs int `json:"runs"`
	// Start is the wall-clock start of the campaign.
	Start time.Time `json:"start"`
	// Phase timings, in seconds. Total covers start to finish and
	// includes queueing inside the engine's worker pool.
	CompileSeconds float64 `json:"compile_seconds,omitempty"`
	ReplaySeconds  float64 `json:"replay_seconds,omitempty"`
	AnalyzeSeconds float64 `json:"analyze_seconds,omitempty"`
	TotalSeconds   float64 `json:"total_seconds"`
	// Error is set when the campaign finished with an error.
	Error string `json:"error,omitempty"`
}

// fingerprintPrefixLen bounds the fingerprint prefix stored on a trace:
// enough to paste into a store lookup, short enough to scan.
const fingerprintPrefixLen = 16

// Tracer retains the most recent completed campaign traces in a
// fixed-capacity ring. It is safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	buf   []CampaignTrace
	next  int
	total uint64
}

// NewTracer returns a tracer retaining the last capacity spans
// (non-positive selects 256).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{buf: make([]CampaignTrace, 0, capacity)}
}

// add records one completed span.
func (t *Tracer) add(tr CampaignTrace) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, tr)
	} else {
		t.buf[t.next] = tr
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.total++
	t.mu.Unlock()
}

// Total reports how many spans were ever recorded (including ones the
// ring has since dropped).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Recent returns the retained spans, most recent first.
func (t *Tracer) Recent() []CampaignTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]CampaignTrace, 0, len(t.buf))
	for i := 0; i < len(t.buf); i++ {
		idx := (t.next - 1 - i + len(t.buf)) % len(t.buf)
		out = append(out, t.buf[idx])
	}
	return out
}
