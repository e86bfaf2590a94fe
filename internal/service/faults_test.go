package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/prng"
)

// Deterministic storage-fault injection for the resilience tests and the
// chaos kill-resume test. A faultPlan draws a pseudo-random fault for
// every filesystem operation from a seed-derived PRNG stream, so a given
// (seed, operation sequence) always produces the same faults: a chaos
// failure reproduces from its seed alone.
//
// The faults model the storage failure modes the durable store must
// survive: plain I/O errors, torn writes (a prefix lands on disk, then
// the write fails, which is what a crash mid-write leaves behind),
// delayed writes (slow disks) and panics in the persistence goroutines.

// errInjected marks every synthetic failure: errors.Is(err, errInjected)
// tells injected faults from real storage trouble.
var errInjected = errors.New("injected storage fault")

// fault enumerates the injectable failure modes.
type fault int

const (
	// faultNone passes the operation through.
	faultNone fault = iota
	// faultError fails the operation before it touches the disk.
	faultError
	// faultTorn writes half the data, then fails. Only writes tear;
	// other operations degrade to faultError.
	faultTorn
	// faultDelay sleeps faultConfig.Delay, then performs the operation.
	faultDelay
	// faultPanic panics the calling goroutine.
	faultPanic
)

// faultConfig sets the per-operation probability of each failure mode.
// The probabilities are cumulative slices of [0, 1): their sum must not
// exceed 1.
type faultConfig struct {
	PError, PTorn, PDelay, PPanic float64
	// Delay is how long faultDelay sleeps (default 10ms when zero).
	Delay time.Duration
}

// faultPlan is a deterministic fault schedule: the i-th operation's fate
// is a pure function of (seed, i). Under concurrency the draw order is
// scheduling-dependent, but the multiset of faults over any N operations
// is not.
type faultPlan struct {
	cfg faultConfig

	mu sync.Mutex
	g  *prng.PRNG
}

func newFaultPlan(seed uint64, cfg faultConfig) *faultPlan {
	if cfg.Delay <= 0 {
		cfg.Delay = 10 * time.Millisecond
	}
	return &faultPlan{cfg: cfg, g: prng.New(seed)}
}

// next draws the fate of one operation.
func (p *faultPlan) next() fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	x := p.g.Float64()
	switch c := p.cfg; {
	case x < c.PError:
		return faultError
	case x < c.PError+c.PTorn:
		return faultTorn
	case x < c.PError+c.PTorn+c.PDelay:
		return faultDelay
	case x < c.PError+c.PTorn+c.PDelay+c.PPanic:
		return faultPanic
	}
	return faultNone
}

// faultyFS interposes a faultPlan between the durable store and osFS.
type faultyFS struct {
	inner osFS
	plan  *faultPlan
}

func withFaults(plan *faultPlan) fileSystem { return &faultyFS{plan: plan} }

// apply resolves one drawn fault for a non-write operation.
func (f *faultyFS) apply(op, name string) error {
	switch f.plan.next() {
	case faultError, faultTorn:
		return fmt.Errorf("%w: %s %s", errInjected, op, name)
	case faultDelay:
		time.Sleep(f.plan.cfg.Delay)
	case faultPanic:
		panic(fmt.Sprintf("injected panic: %s %s", op, name))
	}
	return nil
}

func (f *faultyFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.apply("mkdir", path); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *faultyFS) ReadFile(name string) ([]byte, error) {
	if err := f.apply("read", name); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *faultyFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	switch f.plan.next() {
	case faultError:
		return fmt.Errorf("%w: write %s", errInjected, name)
	case faultTorn:
		// Half the payload reaches the disk, then the write "crashes".
		// The store's envelope checksum must catch this on read-back.
		if err := f.inner.WriteFile(name, data[:len(data)/2], perm); err != nil {
			return err
		}
		return fmt.Errorf("%w: torn write %s", errInjected, name)
	case faultDelay:
		time.Sleep(f.plan.cfg.Delay)
	case faultPanic:
		panic(fmt.Sprintf("injected panic: write %s", name))
	}
	return f.inner.WriteFile(name, data, perm)
}

func (f *faultyFS) Rename(oldpath, newpath string) error {
	if err := f.apply("rename", oldpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *faultyFS) Remove(name string) error {
	if err := f.apply("remove", name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *faultyFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.apply("readdir", name); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// TestPlanDeterministic: the same seed draws the same fault sequence.
func TestPlanDeterministic(t *testing.T) {
	cfg := faultConfig{PError: 0.2, PTorn: 0.1, PDelay: 0.05, PPanic: 0.02, Delay: time.Microsecond}
	a, b := newFaultPlan(42, cfg), newFaultPlan(42, cfg)
	faults := 0
	for i := 0; i < 2000; i++ {
		fa, fb := a.next(), b.next()
		if fa != fb {
			t.Fatalf("draw %d: %v vs %v", i, fa, fb)
		}
		if fa != faultNone {
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
		fsys := withFaults(newFaultPlan(1, faultConfig{PError: 1}))
		err := fsys.WriteFile(name, data, 0o644)
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v", err)
		}
		if _, err := os.Stat(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("errored write touched the disk")
		}
	})

	t.Run("torn", func(t *testing.T) {
		fsys := withFaults(newFaultPlan(1, faultConfig{PTorn: 1}))
		err := fsys.WriteFile(name, data, 0o644)
		if !errors.Is(err, errInjected) {
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
		fsys := withFaults(newFaultPlan(1, faultConfig{PPanic: 1}))
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		_ = fsys.WriteFile(name, data, 0o644)
	})

	t.Run("delay-then-write", func(t *testing.T) {
		fsys := withFaults(newFaultPlan(1, faultConfig{PDelay: 1, Delay: time.Millisecond}))
		if err := fsys.WriteFile(name, data, 0o644); err != nil {
			t.Fatalf("delayed write failed: %v", err)
		}
		got, err := fsys.ReadFile(name)
		if err != nil || string(got) != string(data) {
			t.Fatalf("read back %q, %v", got, err)
		}
	})
}

// TestOSWriteDurable exercises the production filesystem end to end
// (mkdir, write, rename, readdir, remove).
func TestOSWriteDurable(t *testing.T) {
	dir := t.TempDir()
	var fsys osFS
	sub := filepath.Join(dir, "a", "b")
	if err := fsys.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, "x.tmp")
	final := filepath.Join(sub, "x")
	if err := fsys.WriteFile(tmp, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir(sub)
	if err != nil || len(ents) != 1 || ents[0].Name() != "x" {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	if err := fsys.Remove(final); err != nil {
		t.Fatal(err)
	}
}
