// Package randmod is the public API of the Random Modulo reproduction: a
// library for running MBPTA measurement campaigns on the paper's
// randomized cache platform (Random Modulo or hash-based random placement
// on a LEON3-like timing simulator) and deriving probabilistic WCET
// estimates with the MBPTA statistical pipeline.
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
// Result. A Request with CoRunners runs its workload on core 0 of the
// paper's shared-bus multicore, against the co-runners on the other
// cores, through the same Engine.
//
// The surface is three parts: the Engine and what a Request needs, the
// campaign service's wire form (DecodeWireRequest), and the MBPTA
// analysis of a measurement vector (Analyze); HardwareASIC serves the
// paper's cost table. Everything else lives in the internal packages
// (placement policies, Benes networks, the cache and platform simulator,
// EVT and i.i.d. statistics, hardware-cost models), which the commands
// and examples of this module use directly.
package randmod

import (
	"io"

	"repro/internal/core"
	"repro/internal/hwcost"
	"repro/internal/placement"
	"repro/internal/workload"
)

// Placement selects the L1 set-placement function of PaperPlatform.
type Placement = placement.Kind

// Placement policies: the prior MBPTA-compliant design (HRP) and the
// paper's contribution (RM).
const (
	HRP = placement.HRP
	RM  = placement.RM
)

// PlatformSpec describes the simulated platform.
type PlatformSpec = core.PlatformSpec

// PaperPlatform returns the paper's evaluation platform with the given L1
// placement (16KB 4-way L1s, 128KB 4-way L2 partition, 32B lines; the L2
// uses hRP, everything random-replacement).
func PaperPlatform(l1 Placement) PlatformSpec { return core.PaperPlatform(l1) }

// DeterministicPlatform returns the COTS-like modulo+LRU baseline.
func DeterministicPlatform() PlatformSpec { return core.DeterministicPlatform() }

// Workload is a benchmark program (a deterministic trace generator).
type Workload = workload.Workload

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

// Request describes one campaign for the Engine.
type Request = core.Request

// Event is a progress notification (per-run completions and per-campaign
// summaries) delivered to the WithEvents sink.
type Event = core.Event

// RunCompleted is the Event kind of one finished run.
const RunCompleted = core.RunCompleted

// NewEngine builds an Engine; by default it uses a GOMAXPROCS-sized
// worker pool and no events.
func NewEngine(opts ...EngineOption) *Engine { return core.NewEngine(opts...) }

// WithWorkers sizes the Engine's shared worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) EngineOption { return core.WithWorkers(n) }

// WithEvents installs a progress sink; deliveries are serialized. The
// sink runs synchronously on the worker path: keep it fast, never block,
// and never call back into the Engine from it.
func WithEvents(sink func(Event)) EngineOption { return core.WithEvents(sink) }

// WireRequest is the canonical JSON wire form of a Request -- the
// submission format of the campaign service (cmd/rmserved): placement by
// name, workload by name, runs/seed/layout fields. Its Fingerprint()
// method is the content address the service caches results under: by the
// determinism contract, equal fingerprints mean bit-identical Times, so
// repeat submissions are served without re-running.
type WireRequest = core.WireRequest

// DecodeWireRequest reads one JSON-encoded WireRequest (unknown fields
// are rejected so typos fail loudly).
func DecodeWireRequest(r io.Reader) (WireRequest, error) { return core.DecodeWireRequest(r) }

// Analysis is the MBPTA pipeline output: i.i.d. tests, Gumbel fit, pWCET.
type Analysis = core.Analysis

// Analyze applies the MBPTA statistical pipeline to execution times.
func Analyze(times []float64) (Analysis, error) { return core.Analyze(times) }

// HardwareASIC evaluates the ASIC cost model for the RM and hRP modules of
// a cache with the given number of sets (Table 1's design point is 128).
func HardwareASIC(sets int) hwcost.ASICReport {
	return hwcost.ASIC(hwcost.Generic45(), sets, placement.HashedAddressBits)
}
