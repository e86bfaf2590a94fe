package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/placement"
	"repro/internal/workload"
)

// TestResolveNames pins the name resolution shared by the commands that
// take -workload and -placement (core.ResolveNames): placement names are
// case-insensitive, and unknown names are errors that name the bad value.
func TestResolveNames(t *testing.T) {
	w, kind, err := core.ResolveNames("synth20k", "hrp")
	if err != nil || w.Name != "synth20k" || kind.String() != "hRP" {
		t.Fatalf("ResolveNames(synth20k, hrp) = (%v, %v, %v)", w.Name, kind, err)
	}
	if _, _, err := core.ResolveNames("bogus", "RM"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown workload: err = %v", err)
	}
	if _, _, err := core.ResolveNames("synth20k", "bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown placement: err = %v", err)
	}
}

func TestReadTimes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "times.txt")
	if err := os.WriteFile(path, []byte("# header\n100\n\n200.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readTimes(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 200.5 {
		t.Fatalf("readTimes = %v", got)
	}
	if err := os.WriteFile(path, []byte("nan?\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTimes(path); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestSameVectorSameVerdict: a campaign's times written the way rmsim
// -times writes them and read back through -in get exactly the analysis
// the engine computed for that campaign.
func TestSameVectorSameVerdict(t *testing.T) {
	w, err := workload.ByName("canrdr01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine().Run(context.Background(), core.Request{
		Spec: core.PaperPlatform(placement.RM), Workload: w, Runs: 1000, MasterSeed: 0x9A9E6, Analyze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, x := range res.Times {
		b.WriteString(strconv.FormatFloat(x, 'f', 0, 64))
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	an, err := analyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := *res.Analysis
	if an.WW != want.WW || an.KS != want.KS || an.ET != want.ET {
		t.Errorf("i.i.d. verdict differs:\n mbpta  WW %+v KS %+v ET %+v\n engine WW %+v KS %+v ET %+v",
			an.WW, an.KS, an.ET, want.WW, want.KS, want.ET)
	}
	if !reflect.DeepEqual(an.Model, want.Model) || an.PWCET12 != want.PWCET12 || an.PWCET15 != want.PWCET15 {
		t.Errorf("pWCET differs: mbpta %+v (%v, %v), engine %+v (%v, %v)",
			an.Model, an.PWCET12, an.PWCET15, want.Model, want.PWCET12, want.PWCET15)
	}
}

// TestInvalidTimeFails: a NaN measurement fails the analysis with the
// engine's typed error, and the command exits 1.
func TestInvalidTimeFails(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		b.WriteString(strconv.Itoa(1000 + i%7))
		b.WriteByte('\n')
	}
	b.WriteString("NaN\n")
	path := filepath.Join(t.TempDir(), "t.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var ite *evt.InvalidTimeError
	if _, err := analyzeFile(path); !errors.As(err, &ite) || ite.Index != 100 {
		t.Fatalf("analyzeFile error = %v, want *evt.InvalidTimeError at index 100", err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
}

// TestUsage: -in is required and the campaign flags are gone; both are
// usage errors (exit 2).
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-cutoff", "1e-12"},
		{"-workload", "tblook01"},
		{"-in", "t.txt", "-block", "20"},
		// An exceedance probability outside (0, 1) is refused before the
		// input is read (the file does not exist).
		{"-in", "no-such-file", "-cutoff", "0"},
		{"-in", "no-such-file", "-cutoff", "-1"},
		{"-in", "no-such-file", "-cutoff", "1"},
		{"-in", "no-such-file", "-cutoff", "2"},
		{"-in", "no-such-file", "-cutoff", "NaN"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("mbpta %v: exit %d, want 2", args, code)
		}
	}
}
