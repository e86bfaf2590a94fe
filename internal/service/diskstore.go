package service

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// DiskStore is the durable tier behind the in-memory result Store: a
// content-addressed blob store keyed by campaign fingerprint. Completed
// results and in-flight checkpoints live in separate namespaces:
//
//	<root>/results/<fingerprint>.rmr     completed campaign results
//	<root>/checkpoints/<fingerprint>.rmc latest checkpoint of an unfinished campaign
//	<root>/quarantine/                   corrupt entries, moved aside for inspection
//
// Every blob is wrapped in an envelope (an 8-byte magic plus a SHA-256
// over the payload) and writes are crash-atomic: the envelope is written
// to a temp file, fsynced, then renamed into place, so a reader only ever
// sees either the previous blob or the complete new one. A read that
// fails the envelope check (torn write that raced a crash, bit rot,
// truncation) quarantines the entry and reports a miss, so corruption
// degrades to recomputation, never to a wrong answer.
//
// All filesystem access goes through a fileSystem, which is how the
// resilience tests drive I/O errors, torn writes, delays and panics
// through the exact production code paths.
type DiskStore struct {
	fs   fileSystem
	root string

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	writeErrors atomic.Uint64
	quarantines atomic.Uint64
}

// fileSystem is the filesystem surface the durable store runs on: osFS
// in production, a fault-injecting wrapper in the resilience tests.
type fileSystem interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(name string) ([]byte, error)
	// WriteFile must durably persist data before returning (osFS
	// fsyncs), so a completed write survives a crash.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// osFS is the real filesystem with durable writes.
type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }

// WriteFile writes and fsyncs, so rename-over-temp sequences are
// crash-atomic on journaling filesystems.
func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
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

// Namespaces and extensions of the on-disk layout.
const (
	diskResultsDir     = "results"
	diskCheckpointsDir = "checkpoints"
	diskQuarantineDir  = "quarantine"
	diskResultExt      = ".rmr"
	diskCheckpointExt  = ".rmc"
)

// envMagic versions the blob envelope; bump the digit when the envelope
// layout changes so stale files quarantine instead of misparsing.
const envMagic = "RMBLOB1\n"

// envelope wraps payload as magic + SHA-256(payload) + payload.
func envelope(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(envMagic)+len(sum)+len(payload))
	out = append(out, envMagic...)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

// errEnvelope reports a blob that failed the envelope check.
var errEnvelope = errors.New("service: corrupt blob envelope")

// unenvelope verifies the magic and checksum and returns the payload.
func unenvelope(b []byte) ([]byte, error) {
	if len(b) < len(envMagic)+sha256.Size || string(b[:len(envMagic)]) != envMagic {
		return nil, errEnvelope
	}
	want := b[len(envMagic) : len(envMagic)+sha256.Size]
	payload := b[len(envMagic)+sha256.Size:]
	sum := sha256.Sum256(payload)
	if subtle.ConstantTimeCompare(want, sum[:]) != 1 {
		return nil, errEnvelope
	}
	return payload, nil
}

// DiskStats is a point-in-time snapshot of the store's counters.
type DiskStats struct {
	// Hits counts reads that returned a verified payload.
	Hits uint64 `json:"hits"`
	// Misses counts reads that found nothing usable (absent or corrupt).
	Misses uint64 `json:"misses"`
	// Writes counts completed (written, synced, renamed) blob writes.
	Writes uint64 `json:"writes"`
	// WriteErrors counts writes that failed before the rename landed.
	WriteErrors uint64 `json:"write_errors"`
	// Quarantines counts corrupt entries moved to the quarantine dir.
	Quarantines uint64 `json:"quarantines"`
}

// openDiskStore opens (creating if needed) a durable store rooted at dir.
func openDiskStore(fsys fileSystem, dir string) (*DiskStore, error) {
	d := &DiskStore{fs: fsys, root: dir}
	for _, sub := range []string{diskResultsDir, diskCheckpointsDir, diskQuarantineDir} {
		if err := fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Stats snapshots the counters.
func (d *DiskStore) Stats() DiskStats {
	return DiskStats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Writes:      d.writes.Load(),
		WriteErrors: d.writeErrors.Load(),
		Quarantines: d.quarantines.Load(),
	}
}

// GetResult returns the persisted result payload for a fingerprint.
func (d *DiskStore) GetResult(fp string) ([]byte, bool) {
	return d.get(diskResultsDir, fp+diskResultExt)
}

// PutResult durably stores the result payload for a fingerprint.
func (d *DiskStore) PutResult(fp string, payload []byte) error {
	return d.put(diskResultsDir, fp+diskResultExt, payload)
}

// GetCheckpoint returns the persisted checkpoint payload for a
// fingerprint.
func (d *DiskStore) GetCheckpoint(fp string) ([]byte, bool) {
	return d.get(diskCheckpointsDir, fp+diskCheckpointExt)
}

// PutCheckpoint durably stores the latest checkpoint for a fingerprint,
// replacing any previous one.
func (d *DiskStore) PutCheckpoint(fp string, payload []byte) error {
	return d.put(diskCheckpointsDir, fp+diskCheckpointExt, payload)
}

// DeleteCheckpoint removes a fingerprint's checkpoint (no-op if absent).
func (d *DiskStore) DeleteCheckpoint(fp string) {
	_ = d.fs.Remove(filepath.Join(d.root, diskCheckpointsDir, fp+diskCheckpointExt))
}

// QuarantineCheckpoint moves a fingerprint's checkpoint aside as corrupt
// (for damage the envelope cannot see, e.g. a payload that fails
// core.DecodeCheckpoint or no longer validates against its request).
func (d *DiskStore) QuarantineCheckpoint(fp string) {
	d.quarantine(diskCheckpointsDir, fp+diskCheckpointExt)
}

// Checkpoints lists the fingerprints with a stored checkpoint — the
// campaigns a restarting server should resubmit.
func (d *DiskStore) Checkpoints() []string {
	ents, err := d.fs.ReadDir(filepath.Join(d.root, diskCheckpointsDir))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, diskCheckpointExt) {
			continue // stray temp files from a crash mid-write
		}
		out = append(out, strings.TrimSuffix(name, diskCheckpointExt))
	}
	return out
}

// get reads and verifies one blob; corrupt entries are quarantined and
// reported as misses.
func (d *DiskStore) get(dir, name string) ([]byte, bool) {
	b, err := d.fs.ReadFile(filepath.Join(d.root, dir, name))
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	payload, err := unenvelope(b)
	if err != nil {
		d.quarantine(dir, name)
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	return payload, true
}

// put writes one blob crash-atomically: temp file (written and fsynced by
// the FS), then rename into place.
func (d *DiskStore) put(dir, name string, payload []byte) error {
	final := filepath.Join(d.root, dir, name)
	tmp := final + ".tmp"
	if err := d.fs.WriteFile(tmp, envelope(payload), 0o644); err != nil {
		d.writeErrors.Add(1)
		_ = d.fs.Remove(tmp)
		return err
	}
	if err := d.fs.Rename(tmp, final); err != nil {
		d.writeErrors.Add(1)
		_ = d.fs.Remove(tmp)
		return err
	}
	d.writes.Add(1)
	return nil
}

// quarantine moves a corrupt entry aside (falling back to deletion if the
// move fails) so the slot frees for recomputation and the bad bytes stay
// inspectable.
func (d *DiskStore) quarantine(dir, name string) {
	d.quarantines.Add(1)
	dst := filepath.Join(d.root, diskQuarantineDir, dir+"-"+name)
	if err := d.fs.Rename(filepath.Join(d.root, dir, name), dst); err != nil {
		_ = d.fs.Remove(filepath.Join(d.root, dir, name))
	}
}
