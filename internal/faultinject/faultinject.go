// Package faultinject provides deterministic storage-fault injection for
// the resilience test suite and the chaos harness. A Plan draws a
// pseudo-random fault decision for every filesystem operation from a
// seed-derived PRNG stream, so a given (seed, operation sequence) always
// produces the same faults: chaos failures reproduce from their seed
// alone, which is the same determinism discipline the simulation core
// follows (and rmlint enforces on this package).
//
// Faults model the storage failure modes the durable campaign store must
// survive: plain I/O errors, torn writes (a prefix lands on disk, then
// the write fails — what a crash mid-write leaves behind), delayed writes
// (slow disks; exercises shutdown paths), and worker panics in the
// persistence goroutines.
package faultinject

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"repro/internal/prng"
)

// FS is the filesystem surface the durable store runs on. The production
// implementation is OS; tests and the chaos harness wrap it with Wrap to
// inject faults between the store and the disk.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(name string) ([]byte, error)
	// WriteFile must durably persist data before returning (the OS
	// implementation fsyncs), so a completed write survives a crash.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OS is the production FS: the real filesystem with durable writes.
type OS struct{}

// MkdirAll is os.MkdirAll.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReadFile is os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile writes and fsyncs, so rename-over-temp sequences are
// crash-atomic on journaling filesystems.
func (OS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Rename is os.Rename (atomic within a directory on POSIX filesystems).
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove is os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir is os.ReadDir.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// ErrInjected marks every synthetic failure, so tests and operators can
// tell injected faults from real storage trouble: errors.Is(err,
// ErrInjected) holds for all of them.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault enumerates the injectable failure modes.
type Fault int

// Failure modes drawn by a Plan.
const (
	// FaultNone passes the operation through.
	FaultNone Fault = iota
	// FaultError fails the operation with ErrInjected before it touches
	// the disk.
	FaultError
	// FaultTorn writes a prefix of the data, then fails — the on-disk
	// state a crash mid-write leaves behind. Only write operations tear;
	// other operations degrade to FaultError.
	FaultTorn
	// FaultDelay sleeps Config.Delay, then performs the operation. Models
	// slow storage; exercises drain/shutdown paths.
	FaultDelay
	// FaultPanic panics the calling goroutine. The persistence goroutines
	// recover it (and count it); anything else crashing loudly is exactly
	// the signal the chaos harness wants.
	FaultPanic
)

// String names the fault for logs.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultTorn:
		return "torn"
	case FaultDelay:
		return "delay"
	case FaultPanic:
		return "panic"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// Config sets the per-operation probability of each failure mode. The
// probabilities are cumulative slices of [0, 1): PError + PTorn + PDelay
// + PPanic must not exceed 1.
type Config struct {
	PError float64
	PTorn  float64
	PDelay float64
	PPanic float64
	// Delay is how long FaultDelay sleeps (default 10ms when zero).
	Delay time.Duration
}

// Plan is a deterministic fault schedule: the i-th filesystem operation's
// fate is a pure function of (seed, i). Safe for concurrent use; the
// draw order under concurrency is scheduling-dependent, but the multiset
// of faults over any N operations is not, which keeps chaos runs
// statistically reproducible from the seed.
type Plan struct {
	cfg Config

	mu sync.Mutex
	g  *prng.PRNG
}

// NewPlan builds a fault plan drawing from the given seed.
func NewPlan(seed uint64, cfg Config) *Plan {
	if cfg.Delay <= 0 {
		cfg.Delay = 10 * time.Millisecond
	}
	return &Plan{cfg: cfg, g: prng.New(seed)}
}

// next draws the fate of one operation.
func (p *Plan) next() Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	x := p.g.Float64()
	f := FaultNone
	switch c := p.cfg; {
	case x < c.PError:
		f = FaultError
	case x < c.PError+c.PTorn:
		f = FaultTorn
	case x < c.PError+c.PTorn+c.PDelay:
		f = FaultDelay
	case x < c.PError+c.PTorn+c.PDelay+c.PPanic:
		f = FaultPanic
	}
	return f
}

// Wrap interposes plan between fs and its caller. A nil plan returns fs
// unchanged.
func Wrap(inner FS, plan *Plan) FS {
	if plan == nil {
		return inner
	}
	return &faultyFS{inner: inner, plan: plan}
}

type faultyFS struct {
	inner FS
	plan  *Plan
}

// apply resolves one drawn fault for a non-write operation; FaultTorn has
// no meaning there and degrades to FaultError.
func (f *faultyFS) apply(op, name string) error {
	switch f.plan.next() {
	case FaultError, FaultTorn:
		return fmt.Errorf("%w: %s %s", ErrInjected, op, name)
	case FaultDelay:
		time.Sleep(f.plan.cfg.Delay)
	case FaultPanic:
		panic(fmt.Sprintf("faultinject: injected panic: %s %s", op, name))
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
	case FaultError:
		return fmt.Errorf("%w: write %s", ErrInjected, name)
	case FaultTorn:
		// Half the payload reaches the disk, then the write "crashes".
		// The store's envelope checksum must catch this on read-back.
		if err := f.inner.WriteFile(name, data[:len(data)/2], perm); err != nil {
			return err
		}
		return fmt.Errorf("%w: torn write %s", ErrInjected, name)
	case FaultDelay:
		time.Sleep(f.plan.cfg.Delay)
	case FaultPanic:
		panic(fmt.Sprintf("faultinject: injected panic: write %s", name))
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
