package core

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/security"
	"repro/internal/workload"
)

// WireRequest is the canonical JSON wire form of a Request, the submission
// format of the campaign service. Platforms are selected by L1 placement
// name exactly as in the CLIs (placement.ParseKind + PlatformFor, so
// "Modulo" means the fully deterministic modulo+LRU baseline); workloads
// by name (workload.ByName); the layout override is optional.
//
// The wire form is the unit of content addressing: Fingerprint hashes the
// normalized fields that determine the measurement vector, so two
// submissions that differ only in spelling ("rm" vs "RM") or in the
// display name share a fingerprint -- and, by the Engine's determinism
// contract, bit-identical Times.
type WireRequest struct {
	// Name labels the campaign in results and streams. It is a display
	// label only: it does not enter the fingerprint.
	Name string `json:"name,omitempty"`
	// Placement is the L1 placement policy name (Modulo, XORFold, hRP,
	// RM, RM-rot; case-insensitive, aliases accepted).
	Placement string `json:"placement"`
	// Workload is the benchmark name (e.g. "tblook01", "synth20k").
	Workload string `json:"workload"`
	// Runs is the campaign size. Zero lets the service apply its default.
	Runs int `json:"runs,omitempty"`
	// Seed is the campaign master seed.
	Seed uint64 `json:"seed"`
	// Baseline selects the industrial high-water-mark protocol
	// (randomized memory layouts on the platform) instead of MBPTA.
	Baseline bool `json:"baseline,omitempty"`
	// Analyze additionally applies the MBPTA statistical pipeline.
	Analyze bool `json:"analyze,omitempty"`
	// Layout optionally overrides the base memory layout.
	Layout *WireLayout `json:"layout,omitempty"`
	// Security selects the attacker-campaign family instead of a timing
	// campaign: Runs counts attack rounds, Placement is the attacked
	// cache's placement, and Workload becomes optional (it names the
	// occupancy protocol's victim; empty selects the synthetic victim).
	// Baseline and Analyze do not combine with it.
	Security *WireSecurity `json:"security,omitempty"`
	// KeepTimes controls whether the result retains the per-run times
	// vector. Unset or true keeps it (the historical behaviour); false
	// drops it, leaving aggregates to the streaming summary — the choice
	// for very large campaigns. It enters the fingerprint only when false,
	// since a dropped-times result cannot serve a keep-times cache hit.
	KeepTimes *bool `json:"keep_times,omitempty"`
}

// WireSecurity is the JSON form of a security.Spec (minus the placement,
// which rides in the top-level field). Sizing knobs left zero resolve to
// protocol defaults during Normalize, so equivalent submissions share a
// fingerprint.
type WireSecurity struct {
	// Protocol is "eviction", "occupancy" or "primeprobe" (aliases
	// accepted, e.g. "prime+probe", "pp").
	Protocol string `json:"protocol"`
	// Replacement is the attacked cache's replacement policy (LRU,
	// Random, FIFO, PLRU; case-insensitive). Empty selects Random, the
	// MBPTA platform convention.
	Replacement string `json:"replacement,omitempty"`
	// ProbeLines sizes the attacker probe set in cache lines.
	ProbeLines int `json:"probe_lines,omitempty"`
	// ProbeStride is the byte stride between probe candidates (0 = draw
	// pseudo-random candidates per round).
	ProbeStride int `json:"probe_stride,omitempty"`
	// Trials is the Prime+Probe trial count per round.
	Trials int `json:"trials,omitempty"`
	// VictimLines sizes the synthetic occupancy victim.
	VictimLines int `json:"victim_lines,omitempty"`
}

// spec resolves the wire form into a security.Spec for the given attacked
// placement.
func (s WireSecurity) spec(kind placement.Kind) (security.Spec, error) {
	proto, err := security.ParseProtocol(s.Protocol)
	if err != nil {
		return security.Spec{}, err
	}
	repl := cache.Random
	if s.Replacement != "" {
		repl, err = cache.ParseReplacement(s.Replacement)
		if err != nil {
			return security.Spec{}, err
		}
	}
	return security.Spec{
		Protocol:    proto,
		Placement:   kind,
		Replacement: repl,
		ProbeLines:  s.ProbeLines,
		ProbeStride: s.ProbeStride,
		Trials:      s.Trials,
		VictimLines: s.VictimLines,
	}, nil
}

// WireLayout is the JSON form of a workload.Layout.
type WireLayout struct {
	Code    uint64                        `json:"code"`
	Data    uint64                        `json:"data"`
	Table   uint64                        `json:"table"`
	Stack   uint64                        `json:"stack"`
	Pool    uint64                        `json:"pool"`
	Scatter [workload.ScatterSlots]uint64 `json:"scatter"`
}

// Layout converts the wire form to a workload.Layout.
func (l WireLayout) Layout() workload.Layout {
	return workload.Layout{
		Code: l.Code, Data: l.Data, Table: l.Table,
		Stack: l.Stack, Pool: l.Pool, Scatter: l.Scatter,
	}
}

// DecodeWireRequest reads one JSON-encoded WireRequest. Unknown fields are
// an error so typos ("sed" for "seed") fail loudly instead of silently
// fingerprinting a different campaign.
func DecodeWireRequest(r io.Reader) (WireRequest, error) {
	var w WireRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return WireRequest{}, fmt.Errorf("core: decoding request: %w", err)
	}
	return w, nil
}

// Normalize validates the wire request and returns its canonical form:
// the placement spelled as Kind.String(), the workload verified against
// the registry, and Runs checked positive. Name passes through untouched
// (it is a label, not content).
func (w WireRequest) Normalize() (WireRequest, error) {
	kind, err := placement.ParseKind(w.Placement)
	if err != nil {
		return WireRequest{}, fmt.Errorf("core: %w", err)
	}
	if w.Security != nil {
		if w.Baseline {
			return WireRequest{}, errors.New("core: security campaigns cannot use the baseline protocol")
		}
		if w.Analyze {
			return WireRequest{}, errors.New("core: the MBPTA analysis does not apply to security campaigns")
		}
		spec, err := w.Security.spec(kind)
		if err != nil {
			return WireRequest{}, fmt.Errorf("core: %w", err)
		}
		norm, err := spec.Normalized()
		if err != nil {
			return WireRequest{}, fmt.Errorf("core: %w", err)
		}
		if w.Workload != "" {
			if norm.Protocol != security.Occupancy {
				return WireRequest{}, fmt.Errorf("core: a victim workload only applies to the %s protocol", security.Occupancy)
			}
			if _, err := workload.ByName(w.Workload); err != nil {
				return WireRequest{}, fmt.Errorf("core: %w", err)
			}
		}
		w.Security = &WireSecurity{
			Protocol:    norm.Protocol.String(),
			Replacement: norm.Replacement.String(),
			ProbeLines:  norm.ProbeLines,
			ProbeStride: norm.ProbeStride,
			Trials:      norm.Trials,
			VictimLines: norm.VictimLines,
		}
	} else {
		if _, err := workload.ByName(w.Workload); err != nil {
			return WireRequest{}, fmt.Errorf("core: %w", err)
		}
	}
	if w.Runs < 1 {
		return WireRequest{}, errors.New("core: request needs at least one run")
	}
	w.Placement = kind.String()
	// Explicit keep_times=true is the default spelled out: canonicalize to
	// unset so both spellings share a fingerprint.
	if w.KeepTimes != nil && *w.KeepTimes {
		w.KeepTimes = nil
	}
	return w, nil
}

// Request resolves the wire form into an executable Request: the platform
// is PlatformFor(placement kind), the workload comes from the registry.
func (w WireRequest) Request() (Request, error) {
	n, err := w.Normalize()
	if err != nil {
		return Request{}, err
	}
	kind, _ := placement.ParseKind(n.Placement)
	req := Request{
		Name:       n.Name,
		Runs:       n.Runs,
		MasterSeed: n.Seed,
		Baseline:   n.Baseline,
		Analyze:    n.Analyze,
	}
	if n.Workload != "" {
		req.Workload, _ = workload.ByName(n.Workload)
	}
	if n.Security != nil {
		// Normalize already validated and canonicalized the spec.
		spec, err := n.Security.spec(kind)
		if err != nil {
			return Request{}, fmt.Errorf("core: %w", err)
		}
		req.Security = &spec
	} else {
		req.Spec = PlatformFor(kind)
	}
	if n.Layout != nil {
		l := n.Layout.Layout()
		req.Layout = &l
	}
	if n.KeepTimes != nil && !*n.KeepTimes {
		req.KeepTimes = TimesDrop
	}
	return req, nil
}

// Label returns the display name of the campaign: Name if set, else the
// workload name with the same "/hwm" baseline suffix Request.name uses.
func (w WireRequest) Label() string {
	if w.Name != "" {
		return w.Name
	}
	if w.Security != nil {
		repl := w.Security.Replacement
		if repl == "" {
			repl = cache.Random.String()
		}
		return fmt.Sprintf("security/%s/%s/%s", w.Security.Protocol, w.Placement, repl)
	}
	n := w.Workload
	if w.Baseline {
		n += "/hwm"
	}
	return n
}

// fingerprintVersion tags the hash layout; bump it if the canonical
// serialization below ever changes meaning. rmfp2 added the security
// campaign family (the security block below).
const fingerprintVersion = "rmfp2"

// Fingerprint returns the content address of the campaign: a 128-bit hex
// digest over the normalized request fields that determine the result
// (placement kind, workload, runs, seed, baseline, analyze, layout).
// The display Name is excluded. By the Engine's determinism contract,
// equal fingerprints yield bit-identical Times on any host, for any pool
// size -- which is what makes results safely cacheable by fingerprint.
func (w WireRequest) Fingerprint() (string, error) {
	n, err := w.Normalize()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|placement=%s|workload=%s|runs=%d|seed=%d|baseline=%t|analyze=%t",
		fingerprintVersion, n.Placement, n.Workload, n.Runs, n.Seed, n.Baseline, n.Analyze)
	if n.Layout != nil {
		fmt.Fprintf(&b, "|layout=%d,%d,%d,%d,%d", n.Layout.Code, n.Layout.Data,
			n.Layout.Table, n.Layout.Stack, n.Layout.Pool)
		for _, s := range n.Layout.Scatter {
			fmt.Fprintf(&b, ",%d", s)
		}
	}
	if n.Security != nil {
		fmt.Fprintf(&b, "|security=%s,%s,%d,%d,%d,%d",
			n.Security.Protocol, n.Security.Replacement, n.Security.ProbeLines,
			n.Security.ProbeStride, n.Security.Trials, n.Security.VictimLines)
	}
	// Appended only when set, so every pre-existing fingerprint is
	// unchanged (Normalize canonicalized keep_times=true to unset above).
	if n.KeepTimes != nil && !*n.KeepTimes {
		b.WriteString("|keeptimes=false")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:16]), nil
}

// ResolveNames maps the user-facing workload and placement names shared
// by the CLIs (-workload/-placement flags) and usage messages to their
// registry entries. An unknown name is a usage error: the commands
// report it on exit code 2 (the paperbench -exp convention).
func ResolveNames(wname, pname string) (workload.Workload, placement.Kind, error) {
	w, err := workload.ByName(wname)
	if err != nil {
		return workload.Workload{}, 0, err
	}
	kind, err := placement.ParseKind(pname)
	if err != nil {
		return workload.Workload{}, 0, err
	}
	return w, kind, nil
}
