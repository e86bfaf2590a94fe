// Package randmod is the public API of the Random Modulo reproduction: a
// library for building MBPTA-compliant randomized cache platforms
// (Random Modulo and hash-based random placement), running measurement
// campaigns over workloads on a LEON3-like timing simulator, and deriving
// probabilistic WCET estimates with the MBPTA statistical pipeline.
//
// Reproduces: Hernandez, Abella, Gianarro, Andersson, Cazorla, "Random
// Modulo: a New Processor Cache Design for Real-Time Critical Systems",
// DAC 2016.
//
// # Quick start
//
// The front door is the Engine: one shared simulation worker pool serving
// any number of campaigns, with context cancellation, progress events,
// and deterministic batching.
//
//	eng := randmod.NewEngine() // GOMAXPROCS-sized shared pool
//	w, _ := randmod.WorkloadByName("tblook01")
//	res, err := eng.Run(ctx, randmod.Request{
//		Spec:       randmod.PaperPlatform(randmod.RM),
//		Workload:   w,
//		Runs:       1000,
//		MasterSeed: 1,
//		Analyze:    true,
//	})
//	fmt.Println("hwm:", res.HWM(), "pWCET@1e-15:", res.Analysis.PWCET15)
//
// Many campaigns schedule over the same pool with Engine.RunBatch; per-
// campaign results are bit-identical to running each Request alone, for
// any pool size. Cancelling ctx aborts mid-campaign with an error
// wrapping context.Canceled and the partial measurement vector in the
// Result.
//
// The heavy lifting lives in the internal packages (placement policies,
// Benes networks, the cache and platform simulator, EVT and i.i.d.
// statistics, hardware-cost models); this package re-exports the stable
// surface a downstream user needs.
package randmod

import (
	"context"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/hwcost"
	"repro/internal/iid"
	"repro/internal/placement"
	"repro/internal/security"
	"repro/internal/workload"
)

// Placement selects a cache set-placement function.
type Placement = placement.Kind

// Placement policies: the deterministic baselines, the prior
// MBPTA-compliant design (HRP), and the paper's contribution (RM).
const (
	Modulo  = placement.Modulo
	XORFold = placement.XORFold
	HRP     = placement.HRP
	RM      = placement.RM
	RMRot   = placement.RMRot
)

// Replacement selects a cache replacement policy.
type Replacement = cache.ReplacementKind

// Replacement policies; MBPTA platforms use Random.
const (
	LRU    = cache.LRU
	Random = cache.Random
	FIFO   = cache.FIFO
	PLRU   = cache.PLRU
)

// PlatformSpec describes the simulated platform.
type PlatformSpec = core.PlatformSpec

// CacheSetup selects the policies of one cache level of a PlatformSpec.
type CacheSetup = core.CacheSetup

// WriteSetup optionally overrides a cache level's write arrangement (the
// zero value keeps the platform convention: write-through no-allocate
// L1s, write-back L2).
type WriteSetup = core.WriteSetup

// Write arrangements.
const (
	WriteDefault        = core.WriteDefault
	WriteThroughNoAlloc = core.WriteThroughNoAlloc
	WriteThroughAlloc   = core.WriteThroughAlloc
	WriteBackAlloc      = core.WriteBackAlloc
)

// PaperPlatform returns the paper's evaluation platform with the given L1
// placement (16KB 4-way L1s, 128KB 4-way L2 partition, 32B lines; the L2
// uses hRP, everything random-replacement).
func PaperPlatform(l1 Placement) PlatformSpec { return core.PaperPlatform(l1) }

// DeterministicPlatform returns the COTS-like modulo+LRU baseline.
func DeterministicPlatform() PlatformSpec { return core.DeterministicPlatform() }

// Workload is a benchmark program (a deterministic trace generator).
type Workload = workload.Workload

// Layout fixes the memory placement of a workload's objects.
type Layout = workload.Layout

// DefaultLayout returns the fixed memory layout campaigns use unless a
// Request (or WireRequest) carries a Layout override.
func DefaultLayout() Layout { return workload.DefaultLayout() }

// Workloads returns all built-in workloads: the eleven EEMBC-Automotive-
// like kernels and the paper's three synthetic footprints.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks a workload up by name (e.g. "tblook01", "synth20k").
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// SyntheticWorkload builds the paper's synthetic vector kernel.
func SyntheticWorkload(footprintBytes, sweeps, strideBytes int) Workload {
	return workload.Synthetic(footprintBytes, sweeps, strideBytes)
}

// Engine is the context-aware service core of the library: a shared
// simulation worker pool that runs, batches, streams and cancels
// measurement campaigns. Construct one per process with NewEngine.
type Engine = core.Engine

// EngineOption configures NewEngine.
type EngineOption = core.EngineOption

// Request describes one campaign for the Engine; Result is its outcome
// (an embedded CampaignResult plus the optional MBPTA Analysis).
type (
	Request = core.Request
	Result  = core.Result
)

// Event is a progress notification (per-run completions and per-campaign
// summaries) delivered to the WithEvents sink; EventKind discriminates.
type (
	Event     = core.Event
	EventKind = core.EventKind
)

// WireRequest is the canonical JSON wire form of a Request -- the
// submission format of the campaign service (cmd/rmserved): placement by
// name, workload by name, runs/seed/layout fields. Its Fingerprint()
// method is the content address the service caches results under: by the
// determinism contract, equal fingerprints mean bit-identical Times, so
// repeat submissions are served without re-running. WireLayout is the
// JSON form of a Layout override.
type (
	WireRequest = core.WireRequest
	WireLayout  = core.WireLayout
)

// DecodeWireRequest reads one JSON-encoded WireRequest (unknown fields
// are rejected so typos fail loudly).
func DecodeWireRequest(r io.Reader) (WireRequest, error) { return core.DecodeWireRequest(r) }

// WireLayoutFrom converts a Layout to its JSON wire form.
func WireLayoutFrom(l Layout) WireLayout { return core.WireLayoutFrom(l) }

// Event kinds.
const (
	CampaignStarted  = core.CampaignStarted
	RunCompleted     = core.RunCompleted
	CampaignFinished = core.CampaignFinished
)

// Kind discriminates the campaign protocols a Request can carry: MBPTA
// measurement, the deterministic HWM baseline, or a security evaluation.
// Request.Kind reports the kind a given Request resolves to.
type Kind = core.Kind

// Campaign kinds.
const (
	KindMBPTA    = core.KindMBPTA
	KindBaseline = core.KindBaseline
	KindSecurity = core.KindSecurity
)

// KindNames lists the campaign kinds by wire name ("mbpta", "baseline",
// "security") -- what the service's /v1/kinds endpoint reports.
func KindNames() []string { return core.KindNames() }

// SecuritySpec configures a security-evaluation campaign: the attacker
// protocol, the attacked cache's replacement policy, and the attacker
// knobs (probe-pool size/stride, Prime+Probe trials, occupancy victim
// size). Attach one to Request.Security; the placement under attack
// comes from Request.Spec as usual.
type SecuritySpec = security.Spec

// SecurityResult is a security campaign's aggregate: the
// success-vs-effort curve, occupancy-channel accuracy and capacity, and
// the eviction-set construction rate. It arrives in Result.Security.
type SecurityResult = security.Result

// SecurityCurvePoint is one effort level of a SecurityResult curve.
type SecurityCurvePoint = security.CurvePoint

// SecurityProtocol selects the attacker protocol of a SecuritySpec.
type SecurityProtocol = security.Protocol

// Attacker protocols: group-testing eviction-set construction, the
// cache-occupancy channel, and end-to-end Prime+Probe.
const (
	EvictionSet = security.EvictionSet
	Occupancy   = security.Occupancy
	PrimeProbe  = security.PrimeProbe
)

// WireSecurity is the JSON wire form of a SecuritySpec inside a
// WireRequest -- the "security" block of a service submission.
type WireSecurity = core.WireSecurity

// NewEngine builds an Engine; by default it uses a GOMAXPROCS-sized
// worker pool and no events.
func NewEngine(opts ...EngineOption) *Engine { return core.NewEngine(opts...) }

// WithWorkers sizes the Engine's shared worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) EngineOption { return core.WithWorkers(n) }

// WithEvents installs a progress sink; deliveries are serialized. The
// sink runs synchronously on the worker path: keep it fast, never block,
// and never call back into the Engine from it.
func WithEvents(sink func(Event)) EngineOption { return core.WithEvents(sink) }

// WithCheckpointReplay makes the Engine execute every campaign as an
// interrupted-and-resumed pair (checkpoint past the midpoint, wire
// round-trip, resume). Results are bit-identical to plain runs by the
// resume contract; it exists so determinism gates can exercise the crash
// path continuously.
func WithCheckpointReplay() EngineOption { return core.WithCheckpointReplay() }

// Checkpoint is a campaign's streaming frontier frozen mid-flight: the
// covered-run index, merged accumulators, and the seed-derivation inputs
// needed to continue. Produced via Request.CheckpointEvery +
// Request.OnCheckpoint, serialized with Encode (versioned, checksummed),
// and consumed by Request.Resume — the resumed campaign's results are
// bit-identical to an uninterrupted run.
type Checkpoint = core.Checkpoint

// DecodeCheckpoint parses and verifies an Encode()d checkpoint blob. A
// blob that fails the magic, structural, or checksum checks returns a
// *CorruptCheckpointError.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) { return core.DecodeCheckpoint(b) }

// CorruptCheckpointError reports a checkpoint blob that failed
// verification; resuming from it is refused rather than risking silent
// divergence.
type CorruptCheckpointError = core.CorruptCheckpointError

// ResumeMismatchError reports a Resume checkpoint that belongs to a
// different campaign than the Request it was attached to (kind, seed,
// runs, or options differ).
type ResumeMismatchError = core.ResumeMismatchError

// PanicError is a worker panic recovered into a typed campaign failure:
// the campaign fails cleanly, the shared pool survives.
type PanicError = core.PanicError

// CampaignResult holds collected measurements and aggregate statistics.
type CampaignResult = core.CampaignResult

// LevelStats holds the exact per-level cache counters of a campaign,
// summed deterministically across worker shards.
type LevelStats = core.LevelStats

// ShardRuns fans independent, run-indexed simulations of runs [start,
// end) out over a worker pool -- typically an Engine's Pool(), so the
// sweep shares the machine with its campaigns (nil selects a private
// GOMAXPROCS-sized pool). Each worker builds one private execution
// context and processes chunks of runs with do(c, lo, hi); see
// core.ShardRuns for the determinism contract. Cancelling ctx aborts the
// sweep between chunks and returns ctx.Err(); completed runs keep their
// run-indexed outputs.
func ShardRuns[T any](ctx context.Context, pool *core.Pool, start, end int, build func() (T, error), do func(c T, lo, hi int) error) error {
	return core.ShardRuns(ctx, pool, start, end, build, do)
}

// Analysis is the MBPTA pipeline output: i.i.d. tests, Gumbel fit, pWCET.
type Analysis = core.Analysis

// Analyze applies the MBPTA statistical pipeline to execution times.
func Analyze(times []float64) (Analysis, error) { return core.Analyze(times) }

// Standard per-run exceedance cutoffs (paper Section 4.3).
const (
	CutoffHigh = core.CutoffHigh // 1e-15: highest criticality levels
	CutoffLow  = core.CutoffLow  // 1e-12: lower criticality levels
)

// Gumbel is the extreme value distribution used by MBPTA.
type Gumbel = evt.Gumbel

// PWCET is a fitted probabilistic WCET model.
type PWCET = evt.PWCET

// WWResult, KSResult and ETResult are the MBPTA admissibility test
// reports.
type (
	WWResult = iid.WWResult
	KSResult = iid.KSResult
	ETResult = iid.ETResult
)

// HardwareASIC evaluates the ASIC cost model for the RM and hRP modules of
// a cache with the given number of sets (Table 1's design point is 128).
func HardwareASIC(sets int) hwcost.ASICReport {
	return hwcost.ASIC(hwcost.Generic45(), sets, placement.HashedAddressBits)
}

// HardwareFPGA evaluates the FPGA integration model at the paper's design
// point (Table 1's FPGA half).
func HardwareFPGA() hwcost.FPGAReport {
	return hwcost.FPGA(hwcost.DefaultFPGA(), 128, 1024, placement.HashedAddressBits)
}
