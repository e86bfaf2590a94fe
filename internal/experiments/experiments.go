// Package experiments contains one driver per table and figure of the
// paper's evaluation, shared by the paperbench command and the top-level
// benchmark harness. Every driver returns a structured result plus a
// Render method producing the text table the paper reports.
//
// Scale controls campaign sizes: the paper uses 1000 runs per benchmark;
// DefaultScale trims that so the whole suite regenerates in minutes, and
// FullScale (REPRO_FULL=1) restores the paper's numbers.
package experiments

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/workload"
)

// Scale sizes the measurement campaigns.
type Scale struct {
	Runs        int // runs per randomized campaign (paper: 1000)
	HWMLayouts  int // layouts for the deterministic hwm baseline
	SynthRuns   int // runs for the synthetic-kernel campaigns
	Synth160Run int // runs for the 160KB synthetic kernel (costliest)
	SecRounds   int // attack rounds per security campaign
}

// DefaultScale returns the reduced scale used by `go test -bench`.
func DefaultScale() Scale {
	return Scale{Runs: 300, HWMLayouts: 40, SynthRuns: 300, Synth160Run: 60, SecRounds: 120}
}

// FullScale returns the paper's campaign sizes.
func FullScale() Scale {
	return Scale{Runs: 1000, HWMLayouts: 100, SynthRuns: 1000, Synth160Run: 300, SecRounds: 400}
}

// SmokeScale returns the smallest scale at which every driver still
// clears the statistical floors (the admissibility tests want 40+
// measurements, and ablations halve Runs), used by `paperbench -short`
// and the CI smoke run.
func SmokeScale() Scale {
	return Scale{Runs: 80, HWMLayouts: 10, SynthRuns: 80, Synth160Run: 40, SecRounds: 24}
}

// FromEnv returns FullScale when REPRO_FULL=1 is set, DefaultScale
// otherwise.
func FromEnv() Scale {
	if os.Getenv("REPRO_FULL") == "1" {
		return FullScale()
	}
	return DefaultScale()
}

// WorkersFromEnv reads the REPRO_WORKERS override of the engine pool
// size; zero (unset or unparsable) defers to the GOMAXPROCS default.
func WorkersFromEnv() int {
	n, err := strconv.Atoi(os.Getenv("REPRO_WORKERS"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// MasterSeed is the campaign seed used across the harness; change it to
// check robustness of every experiment to the random stream.
const MasterSeed = 0x9A9E6

// eembcInitials maps workload names to the initials used in Table 2.
var eembcInitials = map[string]string{
	"a2time01": "A2", "basefp01": "BA", "bitmnp01": "BI", "cacheb01": "CB",
	"canrdr01": "CN", "matrix01": "MA", "pntrch01": "PN", "puwmod01": "PU",
	"rspeed01": "RS", "tblook01": "TB", "ttsprk01": "TT",
}

// Initials returns the paper's abbreviation for an EEMBC workload name.
// Unknown names fall back to their first two letters.
func Initials(name string) string {
	if s, ok := eembcInitials[name]; ok {
		return s
	}
	if len(name) < 2 {
		return strings.ToUpper(name)
	}
	return strings.ToUpper(name[:2])
}

// analyzedRequest is an MBPTA campaign request with the given L1
// placement, named for the driver that issues it.
func analyzedRequest(name string, l1 placement.Kind, w workload.Workload, runs int) core.Request {
	return core.Request{
		Name:       name,
		Spec:       core.PaperPlatform(l1),
		Workload:   w,
		Runs:       runs,
		MasterSeed: MasterSeed,
		Analyze:    true,
	}
}

// runAnalyzed runs an MBPTA campaign with the given L1 placement on the
// engine and returns times plus analysis.
func runAnalyzed(ctx context.Context, eng *core.Engine, l1 placement.Kind, w workload.Workload, runs int) (core.CampaignResult, core.Analysis, error) {
	res, err := eng.Run(ctx, analyzedRequest(w.Name, l1, w, runs))
	if err != nil {
		return res.CampaignResult, core.Analysis{}, err
	}
	return res.CampaignResult, *res.Analysis, nil
}

// header renders a fixed-width table header with a rule.
func header(b *strings.Builder, title, cols string) {
	fmt.Fprintf(b, "%s\n%s\n%s\n", title, cols, strings.Repeat("-", len(cols)))
}
