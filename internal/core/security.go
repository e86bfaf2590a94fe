package core

import (
	"context"
	"errors"
	"fmt"

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
func (e *Engine) runSecurity(ctx context.Context, req Request, c *campaign) (Result, error) {
	res := Result{Name: c.name}
	if req.Baseline {
		return c.finish(res, errors.New("core: security campaigns cannot use the baseline protocol"))
	}
	if req.Analyze {
		return c.finish(res, errors.New("core: the MBPTA analysis does not apply to security campaigns"))
	}
	spec, err := req.Security.Normalized()
	if err != nil {
		return c.finish(res, fmt.Errorf("core: %w", err))
	}
	if req.Workload.Build != nil && spec.Protocol != security.Occupancy {
		return c.finish(res, fmt.Errorf("core: a victim workload only applies to the %s protocol", security.Occupancy))
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
		if err := e.buildOnce(ctx, c.name, func() (err error) {
			if vic, err = security.VictimFromTrace(req.Workload.Build(layout)); err != nil {
				return fmt.Errorf("core: compiling victim workload %s: %w", req.Workload.Name, err)
			}
			return nil
		}); err != nil {
			return c.finish(res, err)
		}
		c.phase(PhaseCompile)
	}

	times := make([]float64, req.Runs)
	outs := make([]security.RoundOut, req.Runs)
	start := 0
	if req.Resume != nil {
		if err := req.Resume.Validate(req); err != nil {
			return c.finish(res, err)
		}
		start = req.Resume.Frontier
		copy(outs, req.Resume.Rounds)
		for i := 0; i < start; i++ {
			times[i] = outs[i].Accesses
		}
		c.done.Store(int64(start))
	}
	// Checkpoints for security campaigns ride the same frontier over the
	// per-round outputs: a checkpoint's Rounds prefix is everything the
	// final Aggregate needs, so the accumulators stay exactly as they are.
	front := &frontier{pending: make(map[int]parked), merged: start, lastCkpt: start}
	if req.CheckpointEvery > 0 && req.OnCheckpoint != nil {
		front.every = req.CheckpointEvery
		front.checkpoint = func() {
			req.OnCheckpoint(&Checkpoint{
				Kind:       KindSecurity,
				MasterSeed: req.MasterSeed,
				Runs:       req.Runs,
				KeepTimes:  req.KeepTimes,
				Frontier:   front.merged,
				Rounds:     append([]security.RoundOut(nil), outs[:front.merged]...),
			})
		}
	}
	err = ShardRuns(ctx, e.Pool(), start, req.Runs,
		func() (*security.Engine, error) { return security.NewEngine(spec, vic) },
		func(se *security.Engine, lo, hi int) error {
			for round := lo; round < hi; round++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				se.Round(prng.Derive(req.MasterSeed^securitySeedTag, round), &outs[round])
				times[round] = outs[round].Accesses
				c.ran(round, outs[round].Accesses)
			}
			front.commit(lo, hi, nil)
			return nil
		})
	// Security campaigns buffer per-round outputs regardless (Aggregate
	// consumes them), so KeepTimes only controls what the Result exposes.
	if req.KeepTimes == TimesKeep {
		res.Times = times
	}
	if err != nil {
		return c.finish(res, c.aborted(err, "rounds"))
	}
	for _, x := range times {
		res.Summary.Moments.Add(x)
		res.Summary.Sketch.Add(x)
	}
	c.phase(PhaseReplay)
	agg := security.Aggregate(spec, outs)
	res.Security = &agg
	return c.finish(res, nil)
}
