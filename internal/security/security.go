// Package security evaluates the placement x replacement grid from the
// attacker's side: where the MBPTA campaigns measure timing variability
// as a safety property, these campaigns measure it as a leakage channel.
// Three measurement protocols from the randomized-cache security
// literature run against a single attacked cache level with the paper's
// L1 geometry (16KB, 4-way, 32B lines):
//
//   - EvictionSet: group-testing reduction of a candidate probe pool to a
//     minimal eviction set for a victim line (success probability and
//     accesses-to-success vs candidate-pool size).
//   - Occupancy: the attacker fills the cache, the victim either runs or
//     does not (one secret bit per round), the attacker re-probes and
//     counts misses; the curve is best-threshold classifier accuracy vs
//     number of observed rounds, plus a mutual-information estimate of
//     the channel.
//   - PrimeProbe: the attacker builds an eviction set, then runs repeated
//     prime/victim/probe trials against a per-round secret bit; the curve
//     is majority-vote success probability vs trials spent.
//
// Every round is a pure function of (master seed, round index): the cache
// is reseeded and the attacker/victim randomness re-derived per round, so
// campaign results are bit-identical for any worker count, exactly like
// the MBPTA campaigns. The probe loops replay precomputed index plans
// through the attacked cache.Cache under the //rm:hotpath zero-alloc
// contract.
package security

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Attacked-cache geometry: the paper's L1 design point (128 sets). The
// security literature's single-level randomized cache maps onto one L1;
// fixing the geometry keeps the wire surface small and the analytic
// known-answer expectations exact.
const (
	CacheBytes     = 16 << 10
	CacheWays      = 4
	CacheLineBytes = 32
	CacheSets      = CacheBytes / (CacheWays * CacheLineBytes)
)

// Protocol selects one of the three measurement protocols.
type Protocol int

// Measurement protocols.
const (
	EvictionSet Protocol = iota
	Occupancy
	PrimeProbe
)

// String returns the canonical wire name of the protocol.
func (p Protocol) String() string {
	switch p {
	case EvictionSet:
		return "eviction"
	case Occupancy:
		return "occupancy"
	case PrimeProbe:
		return "primeprobe"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Protocols returns all protocols in declaration order.
func Protocols() []Protocol { return []Protocol{EvictionSet, Occupancy, PrimeProbe} }

// ProtocolNames returns the canonical protocol names, for catalogs and
// usage messages.
func ProtocolNames() []string {
	ps := Protocols()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// protocolAliases accepts the spellings the literature uses.
func protocolAliases(p Protocol) []string {
	switch p {
	case EvictionSet:
		return []string{"eviction-set", "evict"}
	case Occupancy:
		return []string{"occ"}
	case PrimeProbe:
		return []string{"prime+probe", "prime-probe", "pp"}
	}
	return nil
}

// ParseProtocol maps a user-facing protocol name (case-insensitive,
// aliases accepted) to its Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range Protocols() {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
		for _, a := range protocolAliases(p) {
			if strings.EqualFold(s, a) {
				return p, nil
			}
		}
	}
	return 0, fmt.Errorf("security: unknown protocol %q (valid: %s)",
		s, strings.Join(ProtocolNames(), ", "))
}

// Spec configures one security campaign on the attacked cache. The zero
// values of the sizing knobs select protocol-appropriate defaults (see
// Normalized); Placement and Replacement select the defended design
// point under attack.
type Spec struct {
	Protocol    Protocol
	Placement   placement.Kind
	Replacement cache.ReplacementKind
	// ProbeLines is the attacker's probe-set size in cache lines: the
	// candidate pool for eviction-set construction and Prime+Probe, the
	// fill set for the occupancy channel.
	ProbeLines int
	// ProbeStride is the byte stride between successive probe candidates.
	// Zero draws ProbeLines pseudo-random candidates from the attacker's
	// address window each round; a positive multiple of CacheLineBytes
	// lays the candidates out as a fixed arithmetic sequence (e.g. the
	// way size, 4096, targets a single set under modulo placement).
	ProbeStride int
	// Trials is the number of prime/victim/probe trials per Prime+Probe
	// round; the success curve's effort axis is a ladder of trial
	// prefixes.
	Trials int
	// VictimLines sizes the synthetic occupancy victim's footprint in
	// cache lines, used when no victim workload is supplied. Zero selects
	// half the cache.
	VictimLines int
}

// Probe-set and trial bounds enforced by Normalized (and therefore by the
// service's 400 path).
const (
	MaxProbeLines  = 1 << 16
	MaxProbeStride = 1 << 26
	MaxTrials      = 4096
	MaxVictimLines = 1 << 16
)

// Normalized validates the spec and resolves protocol defaults: the
// returned Spec is the canonical form that enters fingerprints, with
// knobs that do not apply to the protocol zeroed so equivalent requests
// hash identically.
func (s Spec) Normalized() (Spec, error) {
	switch s.Protocol {
	case EvictionSet, Occupancy, PrimeProbe:
	default:
		return Spec{}, fmt.Errorf("security: unknown protocol %d", int(s.Protocol))
	}
	switch s.Replacement {
	case cache.LRU, cache.Random, cache.FIFO, cache.PLRU:
	default:
		return Spec{}, fmt.Errorf("security: unknown replacement policy %d", int(s.Replacement))
	}
	if s.ProbeLines == 0 {
		if s.Protocol == Occupancy {
			s.ProbeLines = CacheSets * CacheWays // fill the whole cache
		} else {
			s.ProbeLines = 8 * CacheSets // E[candidates per set] = 2x ways
		}
	}
	if s.ProbeLines < CacheWays+1 || s.ProbeLines > MaxProbeLines {
		return Spec{}, fmt.Errorf("security: probe_lines %d out of range [%d, %d]",
			s.ProbeLines, CacheWays+1, MaxProbeLines)
	}
	if s.ProbeStride < 0 || s.ProbeStride > MaxProbeStride || s.ProbeStride%CacheLineBytes != 0 {
		return Spec{}, fmt.Errorf("security: probe_stride %d must be a multiple of %d in [0, %d]",
			s.ProbeStride, CacheLineBytes, MaxProbeStride)
	}
	if s.Protocol == PrimeProbe {
		if s.Trials == 0 {
			s.Trials = 16
		}
		if s.Trials < 1 || s.Trials > MaxTrials {
			return Spec{}, fmt.Errorf("security: trials %d out of range [1, %d]", s.Trials, MaxTrials)
		}
	} else if s.Trials != 0 {
		return Spec{}, fmt.Errorf("security: trials only applies to the %s protocol", PrimeProbe)
	}
	if s.Protocol == Occupancy {
		if s.VictimLines < 0 || s.VictimLines > MaxVictimLines {
			return Spec{}, fmt.Errorf("security: victim_lines %d out of range [0, %d]", s.VictimLines, MaxVictimLines)
		}
	} else if s.VictimLines != 0 {
		return Spec{}, fmt.Errorf("security: victim_lines only applies to the %s protocol", Occupancy)
	}
	return s, nil
}

// efforts returns the ascending effort ladder of the per-round curve:
// quarters of the protocol's budget (candidate-pool size for EvictionSet,
// trial count for PrimeProbe), deduplicated and floored. Occupancy's
// effort axis is observed rounds and is laddered at aggregation time.
func (s Spec) efforts() []int {
	switch s.Protocol {
	case EvictionSet:
		return ladder(s.ProbeLines, CacheWays+1)
	case PrimeProbe:
		return ladder(s.Trials, 1)
	}
	return nil
}

// ladder returns {max/8, max/4, max/2, max} clamped below at floor and
// deduplicated, ascending.
func ladder(maxv, floor int) []int {
	out := make([]int, 0, 4)
	for _, div := range []int{8, 4, 2, 1} {
		v := maxv / div
		if v < floor {
			v = floor
		}
		if n := len(out); n > 0 && out[n-1] >= v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// maxEfforts bounds the per-round curve so RoundOut stays a fixed-size
// value (no per-round allocation on the campaign hot path).
const maxEfforts = 8

// RoundOut is the fixed-size outcome of one attack round, written into a
// round-indexed slot by the sharded campaign loop.
type RoundOut struct {
	// Succ and Acc hold per-effort success (0 or 1) and attacker access
	// counts for the protocols with a per-round effort ladder
	// (EvictionSet, PrimeProbe); slots beyond len(Spec.efforts()) stay 0.
	Succ [maxEfforts]float64
	Acc  [maxEfforts]float64
	// Constructed reports that the PrimeProbe round obtained an eviction
	// set at all; a failed construction scores every effort level 0 (the
	// attack never reached the measurement phase).
	Constructed bool
	// Bit and Miss are the occupancy channel's per-round sample: the
	// victim's secret bit and the attacker's re-probe miss count.
	Bit  uint8
	Miss uint32
	// Accesses is the round's total attacker access count (the campaign's
	// measurement vector, reported as Event.Cycles).
	Accesses float64
}

// CurvePoint is one point of a success-vs-effort curve.
type CurvePoint struct {
	// Effort is protocol-specific: candidate-pool size (EvictionSet),
	// trials per decision (PrimeProbe), or observed rounds (Occupancy).
	Effort int `json:"effort"`
	// Success is the attack success probability at this effort: the
	// fraction of rounds whose eviction set was fully reduced, the
	// fraction of rounds whose majority vote recovered the secret bit,
	// or the best-threshold classifier accuracy over the round prefix.
	Success float64 `json:"success"`
	// Accesses is the mean attacker accesses spent to reach this effort.
	Accesses float64 `json:"accesses"`
}

// Result aggregates a security campaign.
type Result struct {
	Protocol    string       `json:"protocol"`
	Placement   string       `json:"placement"`
	Replacement string       `json:"replacement"`
	Rounds      int          `json:"rounds"`
	Curve       []CurvePoint `json:"curve"`
	// Constructed is the fraction of rounds whose full-pool eviction-set
	// construction succeeded (EvictionSet and PrimeProbe; the Peters et
	// al. observation: random replacement starves construction itself,
	// not just the probe phase).
	Constructed float64 `json:"constructed,omitempty"`
	// Occupancy-channel statistics: per-class mean re-probe miss counts,
	// the best separating threshold, and the empirical mutual information
	// (bits per round) of the thresholded channel.
	MeanMissActive float64 `json:"mean_miss_active,omitempty"`
	MeanMissIdle   float64 `json:"mean_miss_idle,omitempty"`
	Threshold      int     `json:"threshold,omitempty"`
	Capacity       float64 `json:"capacity_bits,omitempty"`
}

// Victim is a victim access pattern for the occupancy protocol: unique
// line addresses plus the access order over them. Immutable and shared by
// all campaign workers.
type Victim struct {
	Lines []uint64
	Ops   []uint32 // indices into Lines
}

// VictimFromTrace numbers a workload trace into a Victim at the attacked
// cache's line size, merging the instruction and data streams (the
// occupancy channel observes total footprint, not stream identity):
// instruction lines first, then data lines, each in first-touch order, and
// one op per access in trace order. It does not go through trace.Compile,
// whose same-line read folding is exact only for split L1s: here both
// streams share one attacked cache.
func VictimFromTrace(tr trace.Trace) (*Victim, error) {
	if len(tr) == 0 {
		return nil, errors.New("security: victim workload built an empty trace")
	}
	var lines [2][]uint64 // per stream: fetches, then loads and stores
	ids := [2]map[uint64]uint32{make(map[uint64]uint32), make(map[uint64]uint32)}
	v := &Victim{Ops: make([]uint32, len(tr))}
	for i, a := range tr {
		s := streamOf(a.Kind)
		la := a.Addr / CacheLineBytes
		id, ok := ids[s][la]
		if !ok {
			id = uint32(len(lines[s]))
			ids[s][la] = id
			lines[s] = append(lines[s], la)
		}
		v.Ops[i] = id
	}
	off := uint32(len(lines[0]))
	for i, a := range tr {
		v.Ops[i] += off * uint32(streamOf(a.Kind))
	}
	v.Lines = append(lines[0], lines[1]...)
	return v, nil
}

// streamOf returns 0 for the instruction stream, 1 for the data stream.
func streamOf(k trace.Kind) int {
	if k == trace.Fetch {
		return 0
	}
	return 1
}

// Aggregate folds the round-indexed outcomes of a campaign into its
// Result. Every statistic is an order-independent function of the slots,
// so the aggregate inherits the sharded loop's worker-count determinism.
func Aggregate(spec Spec, outs []RoundOut) Result {
	res := Result{
		Protocol:    spec.Protocol.String(),
		Placement:   spec.Placement.String(),
		Replacement: spec.Replacement.String(),
		Rounds:      len(outs),
	}
	if len(outs) == 0 {
		return res
	}
	n := float64(len(outs))
	switch spec.Protocol {
	case EvictionSet, PrimeProbe:
		efforts := spec.efforts()
		res.Curve = make([]CurvePoint, len(efforts))
		for j, eff := range efforts {
			var succ, acc float64
			for i := range outs {
				succ += outs[i].Succ[j]
				acc += outs[i].Acc[j]
			}
			res.Curve[j] = CurvePoint{Effort: eff, Success: succ / n, Accesses: acc / n}
		}
		var built float64
		for i := range outs {
			if outs[i].Constructed {
				built++
			}
		}
		res.Constructed = built / n
	case Occupancy:
		res.Curve = occupancyCurve(outs)
		res.MeanMissActive, res.MeanMissIdle = classMeans(outs)
		res.Threshold, _ = bestThreshold(outs)
		res.Capacity = mutualInformation(outs, res.Threshold)
	}
	return res
}
