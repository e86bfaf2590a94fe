package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/prng"
	"repro/internal/security"
	"repro/internal/workload"
)

// securitySeedTag domain-separates the attack-round seed stream from the
// MBPTA run streams (Derive(MasterSeed, run)) and the baseline layout
// streams (Derive(MasterSeed^hwmSeedTag, run)), so a security campaign
// sharing a master seed with a timing campaign still draws independent
// randomness.
const securitySeedTag = 0x5EC

// runSecurity executes a security Request: Runs attack rounds sharded
// over the pool as dynamically claimed chunks, each round a pure function
// of Derive(MasterSeed^securitySeedTag, round), with per-round attacker
// access counts as the measurement vector. Event semantics match the
// timing campaigns (one RunCompleted per round, Cycles = accesses).
func (r *Runner) runSecurity(ctx context.Context, index int, req Request, res *Result, done *atomic.Int64, finish func(error) (Result, error)) (Result, error) {
	if req.Baseline {
		return finish(errors.New("core: security campaigns cannot use the baseline protocol"))
	}
	if req.Analyze {
		return finish(errors.New("core: the MBPTA analysis does not apply to security campaigns"))
	}
	spec, err := req.Security.Normalized()
	if err != nil {
		return finish(fmt.Errorf("core: %w", err))
	}
	if req.Workload.Build != nil && spec.Protocol != security.Occupancy {
		return finish(fmt.Errorf("core: a victim workload only applies to the %s protocol", security.Occupancy))
	}

	// The occupancy victim's trace builds once per campaign, under a pool
	// slot like the timing campaigns' builds; all workers share the
	// read-only compiled form.
	var vic *security.Victim
	if spec.Protocol == security.Occupancy && req.Workload.Build != nil {
		layout := workload.DefaultLayout()
		if req.Layout != nil {
			layout = *req.Layout
		}
		if err := r.buildOnce(ctx, res.Name, func() (err error) {
			if vic, err = security.VictimFromTrace(req.Workload.Build(layout)); err != nil {
				return fmt.Errorf("core: compiling victim workload %s: %w", req.Workload.Name, err)
			}
			return nil
		}); err != nil {
			return finish(err)
		}
		r.emit(Event{Kind: PhaseDone, Campaign: res.Name, CampaignKind: KindSecurity, Index: index,
			Phase: PhaseCompile, Total: req.Runs})
	}

	onRound := func(round int, accesses float64) {
		if r.Events == nil {
			done.Add(1)
			return
		}
		r.evmu.Lock()
		n := int(done.Add(1))
		r.Events(Event{
			Kind: RunCompleted, Campaign: res.Name, CampaignKind: KindSecurity, Index: index,
			Run: round, Cycles: accesses, Done: n, Total: req.Runs,
		})
		r.evmu.Unlock()
	}

	times := make([]float64, req.Runs)
	outs := make([]security.RoundOut, req.Runs)
	start := 0
	if req.Resume != nil {
		if err := req.Resume.validate(req); err != nil {
			return finish(err)
		}
		start = req.Resume.Frontier
		copy(outs, req.Resume.Rounds)
		for i := 0; i < start; i++ {
			times[i] = outs[i].Accesses
		}
		done.Store(int64(start))
	}
	// Checkpoints for security campaigns ride a round-index frontier over
	// the per-round outputs: a checkpoint's Rounds prefix is everything the
	// final Aggregate needs, so the accumulators stay exactly as they are.
	front := &secFrontier{frontier: start, lastCkpt: start, pending: make(map[int]int)}
	if req.CheckpointEvery > 0 && req.OnCheckpoint != nil {
		front.every = req.CheckpointEvery
		front.emit = func(frontier int) {
			req.OnCheckpoint(&Checkpoint{
				Kind:       KindSecurity,
				MasterSeed: req.MasterSeed,
				Runs:       req.Runs,
				KeepTimes:  req.KeepTimes,
				Frontier:   frontier,
				Rounds:     append([]security.RoundOut(nil), outs[:frontier]...),
			})
		}
	}
	err = shardChunksRange(ctx, r.pool(), start, req.Runs,
		func() (*security.Engine, error) { return security.NewEngine(spec, vic) },
		func(e *security.Engine, lo, hi int) error {
			for round := lo; round < hi; round++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				e.Round(prng.Derive(req.MasterSeed^securitySeedTag, round), &outs[round])
				times[round] = outs[round].Accesses
				onRound(round, outs[round].Accesses)
			}
			front.commit(lo, hi)
			return nil
		})
	// Security campaigns buffer per-round outputs regardless (Aggregate
	// consumes them), so KeepTimes only controls what the Result exposes.
	if req.KeepTimes == TimesKeep {
		res.Times = times
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("core: campaign %s aborted after %d/%d rounds: %w",
				res.Name, done.Load(), req.Runs, err)
		}
		return finish(err)
	}
	for _, x := range times {
		res.Summary.Moments.Add(x)
		res.Summary.Sketch.Add(x)
	}
	r.emit(Event{Kind: PhaseDone, Campaign: res.Name, CampaignKind: KindSecurity, Index: index,
		Phase: PhaseReplay, Done: int(done.Load()), Total: req.Runs})
	agg := security.Aggregate(spec, outs)
	res.Security = &agg
	return finish(nil)
}

// secFrontier is the security campaigns' run-index frontier: completed
// chunks commit in order (out-of-order arrivals park in pending), and
// each advance of at least `every` rounds past the last capture emits one
// checkpoint. The same mutex establishes the happens-before edge between
// the workers' writes to outs[round] and the emit closure's read of the
// covered prefix.
type secFrontier struct {
	mu       sync.Mutex
	pending  map[int]int // chunk lo -> hi
	frontier int
	every    int
	lastCkpt int
	emit     func(frontier int)
}

func (s *secFrontier) commit(lo, hi int) {
	s.mu.Lock()
	s.pending[lo] = hi
	for {
		next, ok := s.pending[s.frontier]
		if !ok {
			break
		}
		delete(s.pending, s.frontier)
		s.frontier = next
	}
	if s.emit != nil && s.frontier-s.lastCkpt >= s.every {
		s.lastCkpt = s.frontier
		s.emit(s.frontier)
	}
	s.mu.Unlock()
}
