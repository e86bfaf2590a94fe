package core

import (
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

// securityPlan validates a security Request and returns its part of the
// campaign loop: Runs attack rounds, each a pure function of
// Derive(MasterSeed^securitySeedTag, round), writing its outputs into
// the round-indexed rounds slots and measuring the round's attacker
// access count. The occupancy protocol's victim workload, if any, builds
// once under a pool slot like a timing campaign's trace, and every
// worker shares its read-only compiled form.
func securityPlan(req Request) (plan, error) {
	if req.Baseline {
		return plan{}, errors.New("core: security campaigns cannot use the baseline protocol")
	}
	if req.Analyze {
		return plan{}, errors.New("core: the MBPTA analysis does not apply to security campaigns")
	}
	if len(req.CoRunners) > 0 {
		return plan{}, errors.New("core: CoRunners do not apply to security campaigns")
	}
	spec, err := req.Security.Normalized()
	if err != nil {
		return plan{}, fmt.Errorf("core: %w", err)
	}
	if req.Workload.Build != nil && spec.Protocol != security.Occupancy {
		return plan{}, fmt.Errorf("core: a victim workload only applies to the %s protocol", security.Occupancy)
	}
	rounds := make([]security.RoundOut, req.Runs)
	p := plan{spec: spec, rounds: rounds}
	var vic *security.Victim
	if spec.Protocol == security.Occupancy && req.Workload.Build != nil {
		layout := workload.DefaultLayout()
		if req.Layout != nil {
			layout = *req.Layout
		}
		p.build = func() (err error) {
			if vic, err = security.VictimFromTrace(req.Workload.Build(layout)); err != nil {
				return fmt.Errorf("core: compiling victim workload %s: %w", req.Workload.Name, err)
			}
			return nil
		}
	}
	p.worker = func() (step, error) {
		se, err := security.NewEngine(spec, vic)
		if err != nil {
			return nil, err
		}
		return func(round int, _ *LevelStats) float64 {
			out := &rounds[round]
			se.Round(prng.Derive(req.MasterSeed^securitySeedTag, round), out)
			return out.Accesses
		}, nil
	}
	return p, nil
}
