package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/security"
)

// golden.json maps each workload's catalog fingerprints to the digest of
// their simulated outputs, as recorded by `perfbench -record`. The model is
// checked against its own earlier outputs, not against hardware.
//
//go:embed golden.json
var goldenJSON []byte

// goldens is workload name -> request fingerprint -> output digest.
type goldens map[string]map[string]string

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parsing golden.json: %w", err)
	}
	return g, nil
}

// digester accumulates the canonical text of one result; sum hashes it.
type digester struct{ b strings.Builder }

func (d *digester) f(name string, v float64) {
	fmt.Fprintf(&d.b, "%s=%016x;", name, math.Float64bits(v))
}
func (d *digester) u(name string, v uint64) { fmt.Fprintf(&d.b, "%s=%d;", name, v) }

func (d *digester) sum() string {
	s := sha256.Sum256([]byte(d.b.String()))
	return fmt.Sprintf("%x", s[:12])
}

// security adds a security campaign's curves and channel statistics.
func (d *digester) security(s *security.Result) {
	if s == nil {
		return
	}
	d.b.WriteString("sec:" + s.Protocol + "/" + s.Placement + "/" + s.Replacement + ";")
	d.u("rounds", uint64(s.Rounds))
	for i, p := range s.Curve {
		d.u(fmt.Sprintf("effort%d", i), uint64(p.Effort))
		d.f(fmt.Sprintf("success%d", i), p.Success)
		d.f(fmt.Sprintf("accesses%d", i), p.Accesses)
	}
	d.f("constructed", s.Constructed)
	d.f("active", s.MeanMissActive)
	d.f("idle", s.MeanMissIdle)
	d.u("threshold", uint64(s.Threshold))
	d.f("capacity", s.Capacity)
}

// digestResult digests an engine result: HWM, mean, the per-level hit and
// miss counts, the pWCET quantile bits and any security curves.
func digestResult(r *core.Result) string {
	var d digester
	d.f("hwm", r.HWM())
	d.f("mean", r.Mean())
	for _, l := range []struct {
		name string
		hits uint64
		miss uint64
	}{
		{"il1", r.Levels.IL1.Hits, r.Levels.IL1.Misses},
		{"dl1", r.Levels.DL1.Hits, r.Levels.DL1.Misses},
		{"l2", r.Levels.L2.Hits, r.Levels.L2.Misses},
	} {
		d.u(l.name+"_hits", l.hits)
		d.u(l.name+"_misses", l.miss)
	}
	if a := r.Analysis; a != nil {
		d.f("pwcet12", a.PWCET12)
		d.f("pwcet15", a.PWCET15)
	}
	d.security(r.Security)
	return d.sum()
}

// statusResult is the part of the service's GET /v1/campaigns/{id} answer
// the benchmark reads.
type statusResult struct {
	State     string     `json:"state"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Result    *wireState `json:"result"`
}

type wireState struct {
	Runs    int     `json:"runs"`
	HWM     float64 `json:"hwm"`
	Mean    float64 `json:"mean"`
	IL1Miss float64 `json:"il1_miss"`
	DL1Miss float64 `json:"dl1_miss"`
	L2Miss  float64 `json:"l2_miss"`
	Trace   struct {
		Accesses int `json:"accesses"`
	} `json:"trace"`
	Analysis *wireAnalysis    `json:"analysis"`
	Security *security.Result `json:"security"`
}

type wireAnalysis struct {
	PWCET12 float64 `json:"pwcet_1e12"`
	PWCET15 float64 `json:"pwcet_1e15"`
}

// wireOf is the digested part of an engine result in its wire form.
func wireOf(r *core.Result) *wireState {
	w := &wireState{HWM: r.HWM(), Mean: r.Mean(), IL1Miss: r.IL1Miss, DL1Miss: r.DL1Miss, L2Miss: r.L2Miss, Security: r.Security}
	if a := r.Analysis; a != nil {
		w.Analysis = &wireAnalysis{a.PWCET12, a.PWCET15}
	}
	return w
}

// digestWire digests a service result. The wire form carries per-level
// miss ratios rather than counts; with the fixed access count they carry
// the same information.
func digestWire(r *wireState) string {
	var d digester
	d.f("hwm", r.HWM)
	d.f("mean", r.Mean)
	d.f("il1_miss", r.IL1Miss)
	d.f("dl1_miss", r.DL1Miss)
	d.f("l2_miss", r.L2Miss)
	if a := r.Analysis; a != nil {
		d.f("pwcet12", a.PWCET12)
		d.f("pwcet15", a.PWCET15)
	}
	d.security(r.Security)
	return d.sum()
}

// record runs every catalog request of the workload once and stores the
// digests under the workload's name in path, keeping the other workloads'
// entries.
func record(ctx context.Context, cfg config, path string) error {
	g := goldens{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	}
	s, err := newSUT(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	out := map[string]string{}
	for _, w := range cfg.def.catalog() {
		fp, err := w.Fingerprint()
		if err != nil {
			return err
		}
		o := s.miss(ctx, w)
		if o.err != nil {
			return fmt.Errorf("recording %s: %w", w.Label(), o.err)
		}
		out[fp] = o.digest
	}
	g[cfg.def.name] = out
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
