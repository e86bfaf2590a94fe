package security

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
)

// Attacker and victim address regions. The attacked cache indexes line
// addresses, so only the line-address images matter; the regions are
// disjoint (and clear of every workload layout base) so attacker probes
// never alias victim lines by accident. Under modulo placement both the
// target and the probe base map to set 0, which is what makes the strided
// known-answer expectations exact.
const (
	targetAddr      = 0x2000_0000 // victim line under attack (line 0x1000000, modulo set 0)
	synthVictimBase = 0x3000_0000 // synthetic occupancy victim footprint
	probeBase       = 0x4000_0000 // attacker probe region (line 0x2000000, modulo set 0)

	// probeWindowLines sizes the attacker's candidate window for
	// pseudo-random probe draws (ProbeStride 0): 1M lines = 32MB, large
	// enough that candidate sets are effectively uniform under every
	// placement kind.
	probeWindowLines = 1 << 20
)

// lineOf returns the attacked cache's line address of byte address addr.
// It is a shift: CacheLineBytes is a power of two.
func lineOf(addr uint64) uint64 { return addr / CacheLineBytes }

// Per-round seed-derivation domains: the cache (placement + replacement
// randomness) and the attacker/victim draws (probe candidates, secret
// bits) get disjoint streams from the round seed.
const (
	seedDomainCache = 1
	seedDomainDraws = 2
)

// Engine executes attack rounds for one Spec. One Engine per campaign
// worker (it owns a private cache and scratch); Round is a pure function
// of the round seed, so any number of Engines replaying disjoint round
// ranges produce bit-identical round outcomes.
type Engine struct {
	spec Spec
	c    *cache.Cache

	// lines is the campaign's unique-line table: probe candidates in
	// [0, ProbeLines), then the victim footprint, with the target line
	// last. plan holds the per-round set indices (placement.IndexAll).
	lines  []uint64
	plan   []uint32
	target int32

	randomProbes bool
	probeIDs     []int32 // identity over [0, ProbeLines): the fill set
	victimOps    []int32 // victim access order, indices into lines

	efforts []int
	cur     []int32 // group-testing working set / final eviction set
	rest    []int32 // group-testing complement scratch
	votes   []uint8 // per-trial probe verdicts (PrimeProbe)

	acc uint64 // attacker accesses this round
}

// NewEngine builds a per-worker attack engine. spec must be normalized
// (Spec.Normalized); vic supplies the occupancy victim's access pattern
// and may be nil, which selects the synthetic sequential victim sized by
// Spec.VictimLines.
func NewEngine(spec Spec, vic *Victim) (*Engine, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	c, err := cache.New(cache.Config{
		Name:        "SEC",
		SizeBytes:   CacheBytes,
		Ways:        CacheWays,
		LineBytes:   CacheLineBytes,
		Placement:   spec.Placement,
		Replacement: spec.Replacement,
		Write:       cache.WriteThrough,
	})
	if err != nil {
		return nil, fmt.Errorf("security: building attacked cache: %w", err)
	}
	e := &Engine{
		spec:    spec,
		c:       c,
		efforts: spec.efforts(),
	}
	if len(e.efforts) > maxEfforts {
		return nil, fmt.Errorf("security: %d effort levels exceed the fixed curve size %d", len(e.efforts), maxEfforts)
	}

	p := spec.ProbeLines
	var victimLines []uint64
	switch {
	case spec.Protocol != Occupancy:
		// No victim footprint beyond the single target line.
	case vic != nil:
		victimLines = vic.Lines
	default:
		n := spec.VictimLines
		if n == 0 {
			n = CacheSets * CacheWays / 2
		}
		victimLines = make([]uint64, n)
		for i := range victimLines {
			victimLines[i] = lineOf(synthVictimBase) + uint64(i)
		}
	}

	e.lines = make([]uint64, p+len(victimLines)+1)
	e.plan = make([]uint32, len(e.lines))
	e.target = int32(p + len(victimLines))
	e.lines[e.target] = lineOf(targetAddr)
	copy(e.lines[p:], victimLines)

	if spec.ProbeStride == 0 {
		e.randomProbes = true
	} else {
		for i := 0; i < p; i++ {
			e.lines[i] = lineOf(probeBase + uint64(i)*uint64(spec.ProbeStride))
		}
	}
	e.probeIDs = make([]int32, p)
	for i := range e.probeIDs {
		e.probeIDs[i] = int32(i)
	}
	if spec.Protocol == Occupancy {
		if vic != nil {
			e.victimOps = make([]int32, len(vic.Ops))
			for i, id := range vic.Ops {
				e.victimOps[i] = int32(p + int(id))
			}
		} else {
			e.victimOps = make([]int32, len(victimLines))
			for i := range e.victimOps {
				e.victimOps[i] = int32(p + i)
			}
		}
	}
	e.cur = make([]int32, 0, p)
	e.rest = make([]int32, 0, p)
	if spec.Protocol == PrimeProbe {
		e.votes = make([]uint8, 0, spec.Trials)
	}
	return e, nil
}

// Round executes attack round seed into out. The cache is reseeded and
// all attacker/victim randomness re-derived from the round seed, so the
// outcome is independent of every other round and of worker scheduling.
func (e *Engine) Round(seed uint64, out *RoundOut) {
	*out = RoundOut{}
	e.acc = 0
	e.c.Reseed(prng.Derive(seed, seedDomainCache))
	g := prng.New(prng.Derive(seed, seedDomainDraws))
	if e.randomProbes {
		for i := range e.probeIDs {
			e.lines[i] = lineOf(probeBase) + uint64(g.Intn(probeWindowLines))
		}
	}
	placement.IndexAll(e.c.Policy(), e.lines, e.plan)
	e.c.Begin()
	switch e.spec.Protocol {
	case EvictionSet:
		e.evictionRound(out)
	case Occupancy:
		e.occupancyRound(g, out)
	case PrimeProbe:
		e.primeProbeRound(g, out)
	}
	e.c.End()
	out.Accesses = float64(e.acc)
}

// evictionRound attempts a full group-testing reduction at every
// candidate-pool size of the effort ladder. Pools are prefixes of the
// per-round candidate draw, so effort level j+1 strictly extends level j
// (the attacker keeps its earlier candidates and adds more).
func (e *Engine) evictionRound(out *RoundOut) {
	for j, n := range e.efforts {
		ok, acc := e.construct(n)
		if ok {
			out.Succ[j] = 1
		}
		out.Acc[j] = float64(acc)
		if n == e.spec.ProbeLines {
			// The full-pool attempt doubles as the construction verdict, so
			// the aggregate's Constructed fraction is meaningful for this
			// protocol too.
			out.Constructed = ok
		}
	}
}

// occupancyRound is one sample of the occupancy channel: prime the whole
// probe set, let the victim run iff the secret bit is 1, re-probe and
// count misses.
func (e *Engine) occupancyRound(g *prng.PRNG, out *RoundOut) {
	e.touchAll(e.probeIDs)
	bit := uint8(g.Bits(1))
	if bit == 1 {
		e.sweepVictim()
	}
	out.Bit = bit
	out.Miss = uint32(e.probeMisses(e.probeIDs))
}

// primeProbeRound builds an eviction set from the full candidate pool,
// then runs Spec.Trials prime/victim/probe trials against one per-round
// secret bit; the effort ladder takes majority votes over trial prefixes.
func (e *Engine) primeProbeRound(g *prng.PRNG, out *RoundOut) {
	built, consAcc := e.construct(e.spec.ProbeLines)
	out.Constructed = built
	secret := uint8(g.Bits(1))
	votes := e.votes[:0]
	if built {
		es := e.cur
		for t := 0; t < e.spec.Trials; t++ {
			e.touchAll(es) // prime
			if secret == 1 {
				e.c.Read(e.lines[e.target], e.plan[e.target]) // the victim's secret-dependent access
			}
			v := uint8(0)
			if e.probeMisses(es) > 0 {
				v = 1
			}
			votes = append(votes, v)
		}
	}
	e.votes = votes
	for j, n := range e.efforts {
		if !built {
			out.Acc[j] = float64(consAcc)
			continue
		}
		ones := 0
		for t := 0; t < n; t++ {
			ones += int(votes[t])
		}
		guess := uint8(0)
		if 2*ones > n {
			guess = 1
		}
		if guess == secret {
			out.Succ[j] = 1
		}
		out.Acc[j] = float64(consAcc) + float64(2*len(e.cur)*n)
	}
}

// construct runs the group-testing eviction-set reduction (Vila et al.)
// over the first n probe candidates: while the working set exceeds the
// associativity, split it into ways+1 groups and drop the first group
// whose complement still evicts the target. On success e.cur holds the
// reduced eviction set. Returns success and the attacker accesses spent.
func (e *Engine) construct(n int) (bool, uint64) {
	start := e.acc
	cur := e.cur[:0]
	for i := 0; i < n; i++ {
		cur = append(cur, int32(i))
	}
	if !e.evicts(cur) {
		e.cur = cur
		return false, e.acc - start
	}
	rest := e.rest
	for len(cur) > CacheWays {
		// Balanced boundaries keep exactly ways+1 non-empty groups, which
		// the pigeonhole argument needs: a minimal eviction set has `ways`
		// members, so some group holds none of them and its complement
		// still evicts. A ceil-sized split can degenerate to fewer groups
		// (16 lines -> 4 groups of 4) and stall the reduction.
		groups := CacheWays + 1
		removed := false
		for gi := 0; gi < groups; gi++ {
			lo := gi * len(cur) / groups
			hi := (gi + 1) * len(cur) / groups
			if lo == hi {
				continue
			}
			rest = append(rest[:0], cur[:lo]...)
			rest = append(rest, cur[hi:]...)
			if e.evicts(rest) {
				cur, rest = rest, cur
				removed = true
				break
			}
		}
		if !removed {
			e.cur, e.rest = cur, rest
			return false, e.acc - start
		}
	}
	e.cur, e.rest = cur, rest
	return true, e.acc - start
}

// evicts is the group-testing membership test: install the target, access
// the candidate lines, and report whether the target was displaced. The
// presence check goes through LookupLine so it perturbs neither the
// replacement state nor the counters under measurement.
//
//rm:hotpath
func (e *Engine) evicts(ids []int32) bool {
	t := e.target
	e.c.Read(e.lines[t], e.plan[t])
	for _, id := range ids {
		e.c.Read(e.lines[id], e.plan[id])
	}
	e.acc += uint64(len(ids)) + 1
	return !e.c.LookupLine(e.lines[t], e.plan[t])
}

// touchAll accesses every listed line once (the prime/fill phase).
//
//rm:hotpath
func (e *Engine) touchAll(ids []int32) {
	for _, id := range ids {
		e.c.Read(e.lines[id], e.plan[id])
	}
	e.acc += uint64(len(ids))
}

// probeMisses re-accesses every listed line and counts misses (the probe
// phase).
//
//rm:hotpath
func (e *Engine) probeMisses(ids []int32) int {
	miss := 0
	for _, id := range ids {
		if b, _ := e.c.Read(e.lines[id], e.plan[id]); b&cache.BitHit == 0 {
			miss++
		}
	}
	e.acc += uint64(len(ids))
	return miss
}

// sweepVictim replays the victim's access pattern. Victim accesses are
// not attacker effort, so they do not count toward acc.
//
//rm:hotpath
func (e *Engine) sweepVictim() {
	for _, id := range e.victimOps {
		e.c.Read(e.lines[id], e.plan[id])
	}
}
