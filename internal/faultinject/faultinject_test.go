package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestPlanDeterministic: the same seed draws the same fault sequence.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{PError: 0.2, PTorn: 0.1, PDelay: 0.05, PPanic: 0.02, Delay: time.Microsecond}
	a, b := NewPlan(42, cfg), NewPlan(42, cfg)
	faults := 0
	for i := 0; i < 2000; i++ {
		fa, fb := a.next(), b.next()
		if fa != fb {
			t.Fatalf("draw %d: %v vs %v", i, fa, fb)
		}
		if fa != FaultNone {
			faults++
		}
	}
	// ~37% fault rate over 2000 draws: expect a healthy count of each.
	if faults < 500 || faults > 1100 {
		t.Fatalf("faults = %d, outside plausible band for p=0.37", faults)
	}
}

// TestFaultKinds: each failure mode behaves as documented against a real
// temp directory.
func TestFaultKinds(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "blob")
	data := []byte("0123456789abcdef")

	t.Run("error", func(t *testing.T) {
		fs := Wrap(OS{}, NewPlan(1, Config{PError: 1}))
		err := fs.WriteFile(name, data, 0o644)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v", err)
		}
		if _, err := os.Stat(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("errored write touched the disk")
		}
	})

	t.Run("torn", func(t *testing.T) {
		fs := Wrap(OS{}, NewPlan(1, Config{PTorn: 1}))
		err := fs.WriteFile(name, data, 0o644)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v", err)
		}
		got, rerr := os.ReadFile(name)
		if rerr != nil {
			t.Fatalf("torn write left nothing: %v", rerr)
		}
		if len(got) != len(data)/2 {
			t.Fatalf("torn write left %d bytes, want %d", len(got), len(data)/2)
		}
	})

	t.Run("panic", func(t *testing.T) {
		fs := Wrap(OS{}, NewPlan(1, Config{PPanic: 1}))
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		_ = fs.WriteFile(name, data, 0o644)
	})

	t.Run("delay-then-write", func(t *testing.T) {
		fs := Wrap(OS{}, NewPlan(1, Config{PDelay: 1, Delay: time.Millisecond}))
		if err := fs.WriteFile(name, data, 0o644); err != nil {
			t.Fatalf("delayed write failed: %v", err)
		}
		got, err := fs.ReadFile(name)
		if err != nil || string(got) != string(data) {
			t.Fatalf("read back %q, %v", got, err)
		}
	})
}

// TestWrapNilPlanPassesThrough: Wrap(fs, nil) is the identity.
func TestWrapNilPlanPassesThrough(t *testing.T) {
	var base OS
	if got := Wrap(base, nil); got != FS(base) {
		t.Fatalf("Wrap(base, nil) = %T", got)
	}
}

// TestOSWriteDurable exercises the production FS end to end (mkdir,
// write, rename, readdir, remove).
func TestOSWriteDurable(t *testing.T) {
	dir := t.TempDir()
	var fs OS
	sub := filepath.Join(dir, "a", "b")
	if err := fs.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, "x.tmp")
	final := filepath.Join(sub, "x")
	if err := fs.WriteFile(tmp, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(sub)
	if err != nil || len(ents) != 1 || ents[0].Name() != "x" {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	if err := fs.Remove(final); err != nil {
		t.Fatal(err)
	}
}
