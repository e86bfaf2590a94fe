package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"repro/internal/core"
)

// kernels is the program set of every workload: the eleven EEMBC-like
// kernels plus synth20k. cacheb01 and synth20k overflow the 16 KB L1, the
// rest fit, so a change that only helps one kind of working set shows.
var kernels = []string{
	"a2time01", "basefp01", "bitmnp01", "cacheb01", "canrdr01", "matrix01",
	"pntrch01", "puwmod01", "rspeed01", "tblook01", "ttsprk01", "synth20k",
}

// probeKernel is the kernel the single-campaign layer probes run on.
const probeKernel = "tblook01"

// workloadDef describes one benchmark workload: which campaigns it
// submits, how, and, on the service, how many repeat (hit) requests
// follow each fresh (miss) one.
type workloadDef struct {
	name      string
	placement string // L1 placement on the wire; "Modulo" selects modulo+LRU everywhere
	baseline  bool   // high-water-mark protocol instead of MBPTA
	service   bool   // drive an in-process campaign service over HTTP
	runs      int    // runs per timing campaign
	hits      int    // hit requests issued after every miss (service only)
	security  []core.WireSecurity
	secRuns   int // attack rounds per security campaign
	// variants is the number of master seeds per catalog entry. A run
	// consumes one variant per entry per round, so it bounds the rounds a
	// run can measure.
	variants int
	// roundSeconds is the nominal length of one round with its share of
	// the set-ups timed between rounds, measured on the commit that
	// introduced the benchmark. A run measures a fixed number of rounds,
	// --seconds over this, whatever the program's speed.
	roundSeconds float64
}

var workloads = []workloadDef{
	{name: "mbpta-rm", placement: "RM", runs: 200, variants: 32, roundSeconds: 3.1},
	{name: "baseline-hwm", placement: "Modulo", baseline: true, runs: 32, variants: 32, roundSeconds: 1.9},
	{
		// Eight repeats per fresh campaign is an assumed read-heavy mix
		// (results fetched again by several consumers); no recorded
		// traffic fixes it.
		name: "service-mix", placement: "RM", service: true, runs: 150, hits: 8, variants: 32, roundSeconds: 2.4,
		security: []core.WireSecurity{{Protocol: "eviction"}, {Protocol: "occupancy"}, {Protocol: "primeprobe"}},
		secRuns:  64,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want %s)", name, workloadNames())
}

func workloadNames() string {
	s := ""
	for i, d := range workloads {
		if i > 0 {
			s += ", "
		}
		s += d.name
	}
	return s
}

// entries counts the workload's catalog entries: one per kernel plus one
// per security campaign shape.
func (d workloadDef) entries() int { return len(kernels) + len(d.security) }

// request returns the wire request of one catalog entry and variant. The
// catalog is fixed, so every request's outputs can be checked against a
// recorded digest whatever the workload seed.
func (d workloadDef) request(entry, variant int) core.WireRequest {
	keep := false
	w := core.WireRequest{
		Placement: d.placement,
		Seed:      campaignSeed(d.name, entry, variant),
		KeepTimes: &keep,
	}
	if entry < len(kernels) {
		w.Workload = kernels[entry]
		w.Runs = d.runs
		w.Baseline = d.baseline
		w.Analyze = !d.baseline
		return w
	}
	sec := d.security[entry-len(kernels)]
	w.Security = &sec
	w.Runs = d.secRuns
	return w
}

// catalog lists every request the workload can submit.
func (d workloadDef) catalog() []core.WireRequest {
	var out []core.WireRequest
	for v := 0; v < d.variants; v++ {
		for e := 0; e < d.entries(); e++ {
			out = append(out, d.request(e, v))
		}
	}
	return out
}

// campaignSeed derives a catalog campaign's master seed (splitmix64 over
// the workload name, entry and variant).
func campaignSeed(name string, entry, variant int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := h.Sum64() ^ uint64(entry)<<32 ^ uint64(variant)
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// op is one request of a round: a miss submits a fresh campaign, a hit
// repeats a completed one chosen by pick.
type op struct {
	miss  bool
	entry int // a miss's catalog entry
	wire  core.WireRequest
	pick  int
}

// plan generates a workload's request stream from the workload seed:
// which variant of each entry a round uses, the order of the entries in a
// round, and the targets of the hits.
type plan struct {
	def   workloadDef
	rng   *rand.Rand
	perms [][]int // per entry: the order its variants are used in
	round int
}

func newPlan(d workloadDef, seed uint64) *plan {
	p := &plan{def: d, rng: rand.New(rand.NewPCG(seed, 0x7065726662656e63))}
	for e := 0; e < d.entries(); e++ {
		p.perms = append(p.perms, p.rng.Perm(d.variants))
	}
	return p
}

// rounds is the number of rounds a run of the given length measures.
func (d workloadDef) rounds(seconds float64) int {
	return min(max(1, int(math.Round(seconds/d.roundSeconds))), d.variants)
}

// nextRound returns the next round: every catalog entry once, in seeded
// order, each miss followed by its hits. It returns nil once every
// variant has been used.
func (p *plan) nextRound() []op {
	if p.round >= p.def.variants {
		return nil
	}
	var ops []op
	for _, e := range p.rng.Perm(p.def.entries()) {
		ops = append(ops, op{miss: true, entry: e, wire: p.def.request(e, p.perms[e][p.round])})
		for h := 0; h < p.def.hits; h++ {
			ops = append(ops, op{pick: p.rng.IntN(1 << 30)})
		}
	}
	p.round++
	return ops
}
