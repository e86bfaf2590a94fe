package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// paperbenchArgsEnv turns the test binary into paperbench: when it is
// set, TestMain runs main with its newline-separated arguments instead of
// the tests, so the trajectory test regenerates snapshots with exactly
// the command's code path.
const paperbenchArgsEnv = "RM_PAPERBENCH_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(paperbenchArgsEnv); args != "" {
		os.Args = append([]string{"paperbench"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTrajectoryMatchesCommittedSnapshots is the determinism-trajectory
// gate. It regenerates the -short trajectory twice, once plainly and once
// with -resume-check (every campaign interrupted at a checkpoint and
// resumed), and requires each regeneration to be bit-identical to every
// committed BENCH_PR*.json snapshot under compareReports' rule. The two
// regenerations must also match each other group for group, with no
// skip, so campaign groups that no committed snapshot holds yet are held
// to the crash path too.
func TestTrajectoryMatchesCommittedSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the short trajectory twice")
	}
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_PR*.json snapshots found (%v)", err)
	}
	snapshots := make([]jsonReport, len(paths))
	for i, p := range paths {
		if snapshots[i], err = loadReport(p); err != nil {
			t.Fatal(err)
		}
	}
	modes := []struct {
		name  string
		extra []string
	}{{"plain", nil}, {"resume-check", []string{"-resume-check"}}}
	fresh := make([]*jsonReport, len(modes))
	// Cleanups run once both parallel regenerations are done.
	t.Cleanup(func() {
		if fresh[0] == nil || fresh[1] == nil {
			return // a regeneration failed and said why
		}
		diffs, skips := compareReports(*fresh[0], *fresh[1])
		for _, d := range append(diffs, skips...) {
			t.Errorf("plain vs resume-check: %s", d)
		}
	})
	for m, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			out := filepath.Join(t.TempDir(), "bench.json")
			args := append([]string{"-short", "-json", out}, mode.extra...)
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), paperbenchArgsEnv+"="+strings.Join(args, "\n"))
			if log, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("paperbench %s: %v\n%s", strings.Join(args, " "), err, log)
			}
			rep, err := loadReport(out)
			if err != nil {
				t.Fatal(err)
			}
			for i, old := range snapshots {
				diffs, skips := compareReports(old, rep)
				if len(skips) > 0 {
					t.Logf("%s: %d campaign groups have no baseline there, first %s", filepath.Base(paths[i]), len(skips), skips[0])
				}
				for _, d := range diffs {
					t.Errorf("%s: %s", filepath.Base(paths[i]), d)
				}
			}
			fresh[m] = &rep
		})
	}
}

// loadReport reads one -json report.
func loadReport(path string) (jsonReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return jsonReport{}, err
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return jsonReport{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// canon renders the result-determining fields of a row: runs, HWM, mean,
// the pWCET quantiles and the error text. Wall time is left out. Floats
// print with full float64 round-trip precision, so equal strings mean
// bit-identical results.
func canon(r campaignJSON) string {
	p12, p15 := "absent", "absent"
	if r.PWCET12 != nil {
		p12 = fmt.Sprintf("%.17g", *r.PWCET12)
	}
	if r.PWCET15 != nil {
		p15 = fmt.Sprintf("%.17g", *r.PWCET15)
	}
	return fmt.Sprintf("runs=%d hwm=%.17g mean=%.17g pwcet12=%s pwcet15=%s err=%q",
		r.Runs, r.HWM, r.Mean, p12, p15, r.Error)
}

// groups buckets a report's rows by (experiment, name), each bucket's
// canonical forms sorted. Campaigns finish in a nondeterministic order,
// and one experiment may run several campaigns under one name (fig5 runs
// an RM and an hRP campaign per footprint), so a group compares as a
// sorted multiset.
func groups(rep jsonReport) map[string][]string {
	out := make(map[string][]string)
	for _, r := range rep.Campaigns {
		key := r.Experiment + "/" + r.Name
		out[key] = append(out[key], canon(r))
	}
	for _, v := range out {
		sort.Strings(v)
	}
	return out
}

// compareReports returns the differences between a committed snapshot
// and a fresh one, plus notes for the groups only the fresh one has.
// Environment fields (generation time, worker count, wall time) are
// exempt. A group only in the fresh snapshot is tolerated, since a new
// experiment lands before the committed snapshots catch up; a group
// missing from it fails, since committed results must never silently
// disappear.
func compareReports(oldRep, newRep jsonReport) (diffs, skips []string) {
	og, ng := groups(oldRep), groups(newRep)
	if oldRep.Scale != newRep.Scale {
		diffs = append(diffs, fmt.Sprintf("scale: %q vs %q (snapshots must use the same -short/-full scale)", oldRep.Scale, newRep.Scale))
	}
	keys := make([]string, 0, len(og))
	for k := range og {
		keys = append(keys, k)
	}
	for k := range ng {
		if _, ok := og[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		o, n := og[k], ng[k]
		switch {
		case len(o) == 0:
			skips = append(skips, fmt.Sprintf("%s: only in the new snapshot (%d campaigns; no old baseline)", k, len(n)))
		case len(n) == 0:
			diffs = append(diffs, fmt.Sprintf("%s: missing from the new snapshot", k))
		case len(o) != len(n):
			diffs = append(diffs, fmt.Sprintf("%s: %d campaigns vs %d", k, len(o), len(n)))
		default:
			for i := range o {
				if o[i] != n[i] {
					diffs = append(diffs, fmt.Sprintf("%s[%d]:\n  old: %s\n  new: %s", k, i, o[i], n[i]))
				}
			}
		}
	}
	return diffs, skips
}

func q(v float64) *float64 { return &v }

func baseReport() jsonReport {
	return jsonReport{
		Scale: "short",
		Campaigns: []campaignJSON{
			{Experiment: "table2", Name: "table2/a", Runs: 80, HWM: 100, Mean: 90.5, PWCET12: q(110.25), PWCET15: q(112.75)},
			{Experiment: "fig5", Name: "synth8k", Runs: 40, HWM: 200, Mean: 180},
			{Experiment: "fig5", Name: "synth8k", Runs: 40, HWM: 220, Mean: 190},
		},
	}
}

func TestCompareIdentical(t *testing.T) {
	diffs, skips := compareReports(baseReport(), baseReport())
	if len(diffs) != 0 || len(skips) != 0 {
		t.Fatalf("identical reports flagged: %v / %v", diffs, skips)
	}
}

func TestCompareIgnoresOrderWithinDuplicateNames(t *testing.T) {
	newRep := baseReport()
	// Completion order flips for the two fig5/synth8k campaigns.
	newRep.Campaigns[1], newRep.Campaigns[2] = newRep.Campaigns[2], newRep.Campaigns[1]
	if diffs, _ := compareReports(baseReport(), newRep); len(diffs) != 0 {
		t.Fatalf("reordered duplicate-name campaigns flagged: %v", diffs)
	}
}

func TestCompareFlagsResultDrift(t *testing.T) {
	for name, mutate := range map[string]func(*jsonReport){
		"hwm":           func(r *jsonReport) { r.Campaigns[0].HWM++ },
		"mean":          func(r *jsonReport) { r.Campaigns[0].Mean += 1e-9 },
		"pwcet12":       func(r *jsonReport) { *r.Campaigns[0].PWCET12 += 1e-9 },
		"pwcet-dropped": func(r *jsonReport) { r.Campaigns[0].PWCET15 = nil },
		"runs":          func(r *jsonReport) { r.Campaigns[0].Runs = 81 },
		"missing":       func(r *jsonReport) { r.Campaigns = r.Campaigns[1:] },
		"error-text":    func(r *jsonReport) { r.Campaigns[0].Error = "boom" },
		"scale":         func(r *jsonReport) { r.Scale = "full" },
	} {
		newRep := baseReport()
		mutate(&newRep)
		if diffs, _ := compareReports(baseReport(), newRep); len(diffs) == 0 {
			t.Errorf("%s drift not flagged", name)
		}
	}
}

// TestCompareToleratesNewOnlyGroups: a group absent from the old snapshot
// (a newly added experiment) is a note, not a failure.
func TestCompareToleratesNewOnlyGroups(t *testing.T) {
	newRep := baseReport()
	newRep.Campaigns = append(newRep.Campaigns,
		campaignJSON{Experiment: "security-evict", Name: "security/eviction/RM/Random", Runs: 24})
	diffs, skips := compareReports(baseReport(), newRep)
	if len(diffs) != 0 {
		t.Fatalf("new-only group failed the gate: %v", diffs)
	}
	if len(skips) != 1 || !strings.Contains(skips[0], "security-evict/security/eviction/RM/Random") {
		t.Fatalf("skips = %v, want one note naming the new group", skips)
	}
}

// TestLoadIgnoresEnvironmentFields: reports that differ only in
// generation time, worker count and wall time compare equal.
func TestLoadIgnoresEnvironmentFields(t *testing.T) {
	doc := `{"generated_at":"2026-01-01T00:00:00Z","scale":"short","workers":8,"campaigns":[
		{"experiment":"table2","name":"table2/a","runs":80,"hwm":100,"mean":90.5,"wall_seconds":12.75}]}`
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	other := rep
	other.GeneratedAt = rep.GeneratedAt.Add(time.Hour)
	other.Workers = 1
	other.Campaigns = append([]campaignJSON(nil), rep.Campaigns...)
	other.Campaigns[0].WallSeconds = 0.5
	if diffs, _ := compareReports(rep, other); len(diffs) != 0 {
		t.Fatalf("environment fields leaked into the comparison: %v", diffs)
	}
}
