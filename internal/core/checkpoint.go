// Checkpoint capture and the versioned wire codec for crash-safe
// campaigns. A Checkpoint is the streaming frontier of a campaign — the
// contiguous covered-run prefix plus every merged accumulator — captured
// each time the frontier advances far enough (Request.CheckpointEvery /
// Request.OnCheckpoint) and restored through Request.Resume. Because the
// frontier only ever covers a canonical run prefix and every per-run seed
// derives from (MasterSeed, run index), resuming from a checkpoint is
// bit-identical to never having been interrupted, for any worker count on
// either side of the crash.
//
// Wire format (version 1): an 8-byte magic, a little-endian binary
// payload, and a trailing SHA-256 checksum over magic+payload. The codec
// is deliberately independent of encoding/gob and reflection: the layout
// is part of the resilience contract documented in README "Resilience",
// and a stored checkpoint either decodes exactly or fails loudly as
// *CorruptCheckpointError (never a partial restore).
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/evt"
	"repro/internal/iid"
	"repro/internal/security"
	"repro/internal/stats"
)

// checkpointMagic versions the blob; bump the digit when the payload
// layout changes so stale checkpoints fail decode instead of silently
// misparsing.
const checkpointMagic = "RMCKPT2\n"

// checksumLen is the length of the trailing SHA-256.
const checksumLen = sha256.Size

// CorruptCheckpointError reports a checkpoint blob that failed the
// checksum, carried a wrong magic/version, or was structurally invalid.
// Callers treat it as "this checkpoint is unusable, start from run 0"
// (the service additionally quarantines the backing file).
type CorruptCheckpointError struct{ Reason string }

func (e *CorruptCheckpointError) Error() string {
	return "core: corrupt checkpoint: " + e.Reason
}

// ResumeMismatchError reports a structurally valid checkpoint that
// belongs to a different campaign than the Request it was attached to
// (the named field differs). Resuming would silently splice two
// campaigns, so the Engine rejects it before the first run.
type ResumeMismatchError struct{ Field string }

func (e *ResumeMismatchError) Error() string {
	return "core: checkpoint does not match request: " + e.Field
}

// Checkpoint is the resumable state of a campaign at a streaming
// frontier: runs [0, Frontier) are fully accumulated, runs [Frontier,
// Runs) have not happened as far as the restored campaign is concerned
// (work past the frontier at capture time is simply redone — it is a pure
// function of the run index, so redoing it is invisible in the result).
//
// Every kind runs through the same campaign loop, so every checkpoint
// carries its merged Moments/Sketch/BlockMax accumulators, the IID
// admissibility window prefix, the summed per-level cache counters (zero
// for security campaigns, whose attacked cache is standalone) and, for
// KeepTimes campaigns, the measurement-vector prefix. Security campaigns
// add their per-round outputs, which their final Aggregate consumes.
type Checkpoint struct {
	Kind       Kind
	MasterSeed uint64
	Runs       int
	KeepTimes  TimesMode
	Frontier   int

	// The streaming accumulators, for every kind.
	Window  []float64 // admissibility prefix: min(Frontier, iid.Window) values
	Moments stats.Moments
	Sketch  stats.QuantileSketch
	Maxima  *stats.BlockMax
	BadRun  int // lowest invalid-measurement run (-1: none)
	BadVal  float64
	Levels  LevelStats
	Times   []float64 // [0:Frontier] when KeepTimes keeps the vector

	// Security campaigns only: per-round outputs [0:Frontier].
	Rounds []security.RoundOut
}

// Validate checks that the checkpoint resumes exactly the given request
// and is internally consistent, without running anything: the check the
// Engine applies to Request.Resume, and the one stores run to vet a
// recovered checkpoint before attaching it (and quarantine it instead of
// failing the campaign). Field mismatches return *ResumeMismatchError;
// structural damage returns *CorruptCheckpointError.
func (cp *Checkpoint) Validate(req Request) error {
	if cp.Kind != req.Kind() {
		return &ResumeMismatchError{Field: "kind"}
	}
	if cp.MasterSeed != req.MasterSeed {
		return &ResumeMismatchError{Field: "master_seed"}
	}
	if cp.Runs != req.Runs {
		return &ResumeMismatchError{Field: "runs"}
	}
	if cp.KeepTimes != req.KeepTimes {
		return &ResumeMismatchError{Field: "keep_times"}
	}
	return cp.check()
}

// check verifies internal consistency independent of any request.
func (cp *Checkpoint) check() error {
	bad := func(format string, args ...any) error {
		return &CorruptCheckpointError{Reason: fmt.Sprintf(format, args...)}
	}
	if cp.Runs < 1 {
		return bad("runs %d", cp.Runs)
	}
	if cp.Frontier < 0 || cp.Frontier > cp.Runs {
		return bad("frontier %d outside [0, %d]", cp.Frontier, cp.Runs)
	}
	wantRounds := 0
	if cp.Kind == KindSecurity {
		wantRounds = cp.Frontier
	}
	if len(cp.Rounds) != wantRounds {
		return bad("%d rounds for frontier %d of a %s checkpoint (want %d)", len(cp.Rounds), cp.Frontier, cp.Kind, wantRounds)
	}
	wantWin := min(cp.Frontier, min(cp.Runs, iid.Window))
	if len(cp.Window) != wantWin {
		return bad("window %d for frontier %d (want %d)", len(cp.Window), cp.Frontier, wantWin)
	}
	block := evt.BlockFor(cp.Runs)
	if cp.Maxima == nil || cp.Maxima.Block != block || cp.Maxima.First != 0 {
		return bad("block maxima missing or block size mismatch")
	}
	if len(cp.Maxima.Max) != cp.Runs/block {
		return bad("%d block maxima for %d runs (want %d)", len(cp.Maxima.Max), cp.Runs, cp.Runs/block)
	}
	if cp.KeepTimes == TimesKeep {
		if len(cp.Times) != cp.Frontier {
			return bad("%d times for frontier %d", len(cp.Times), cp.Frontier)
		}
	} else if len(cp.Times) != 0 {
		return bad("keep_times:false checkpoint carries times")
	}
	if cp.BadRun < -1 || cp.BadRun >= cp.Runs {
		return bad("bad-run index %d", cp.BadRun)
	}
	return nil
}

// Encode serializes the checkpoint into the versioned, checksummed wire
// form. The blob is self-contained: DecodeCheckpoint(cp.Encode()) on any
// process reproduces cp exactly.
func (cp *Checkpoint) Encode() []byte {
	b := make([]byte, 0, cp.encodedSizeHint())
	b = append(b, checkpointMagic...)
	b = append(b, byte(cp.Kind))
	b = binary.LittleEndian.AppendUint64(b, cp.MasterSeed)
	b = binary.AppendUvarint(b, uint64(cp.Runs))
	b = append(b, byte(cp.KeepTimes))
	b = binary.AppendUvarint(b, uint64(cp.Frontier))

	// Streaming accumulators.
	b = appendFloats(b, cp.Window)
	mean, m2 := cp.Moments.Welford()
	b = binary.AppendUvarint(b, uint64(cp.Moments.N))
	for _, f := range [...]float64{cp.Moments.Sum, cp.Moments.Min, cp.Moments.Max, mean, m2} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.AppendUvarint(b, uint64(cp.Sketch.N))
	nz := 0
	for _, c := range cp.Sketch.Buckets {
		if c != 0 {
			nz++
		}
	}
	b = binary.AppendUvarint(b, uint64(nz))
	for i, c := range cp.Sketch.Buckets {
		if c != 0 {
			b = binary.AppendUvarint(b, uint64(i))
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	if cp.Maxima == nil {
		b = binary.AppendUvarint(b, 0)
	} else {
		// Only blocks the frontier touched carry information; the decoder
		// refills the tail with -Inf.
		touched := 0
		if cp.Frontier > 0 {
			touched = min((cp.Frontier-1)/cp.Maxima.Block+1, len(cp.Maxima.Max))
		}
		b = binary.AppendUvarint(b, uint64(cp.Maxima.Block))
		b = binary.AppendUvarint(b, uint64(len(cp.Maxima.Max)))
		b = appendFloats(b, cp.Maxima.Max[:touched])
	}
	b = binary.AppendUvarint(b, uint64(cp.BadRun+1))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cp.BadVal))
	b = appendCacheStats(b, cp.Levels.IL1)
	b = appendCacheStats(b, cp.Levels.DL1)
	b = appendCacheStats(b, cp.Levels.L2)
	b = appendFloats(b, cp.Times)

	// Security rounds.
	b = binary.AppendUvarint(b, uint64(len(cp.Rounds)))
	for i := range cp.Rounds {
		o := &cp.Rounds[i]
		for _, f := range o.Succ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		for _, f := range o.Acc {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		flags := byte(0)
		if o.Constructed {
			flags = 1
		}
		b = append(b, flags, o.Bit)
		b = binary.LittleEndian.AppendUint32(b, o.Miss)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Accesses))
	}

	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

func (cp *Checkpoint) encodedSizeHint() int {
	n := 256 + 8*(len(cp.Window)+len(cp.Times)) + 10*len(cp.Sketch.Buckets)/8
	if cp.Maxima != nil {
		n += 8 * len(cp.Maxima.Max)
	}
	n += len(cp.Rounds) * (16*8 + 16)
	return n
}

// DecodeCheckpoint parses and verifies a checkpoint blob. Damage of any
// kind — truncation, bit flips, a wrong magic, out-of-range fields —
// returns *CorruptCheckpointError; a successfully decoded checkpoint is
// internally consistent (but not yet matched against a Request; the
// Engine does that on resume).
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	corrupt := func(format string, args ...any) (*Checkpoint, error) {
		return nil, &CorruptCheckpointError{Reason: fmt.Sprintf(format, args...)}
	}
	if len(b) < len(checkpointMagic)+checksumLen {
		return corrupt("truncated (%d bytes)", len(b))
	}
	if string(b[:len(checkpointMagic)]) != checkpointMagic {
		return corrupt("bad magic")
	}
	body, sum := b[:len(b)-checksumLen], b[len(b)-checksumLen:]
	if sha256.Sum256(body) != [checksumLen]byte(sum) {
		return corrupt("checksum mismatch")
	}

	d := &ckptReader{b: body[len(checkpointMagic):]}
	cp := &Checkpoint{}
	cp.Kind = Kind(d.u8())
	cp.MasterSeed = d.u64()
	cp.Runs = d.count(1 << 31)
	cp.KeepTimes = TimesMode(d.u8())
	cp.Frontier = d.count(1 << 31)
	if d.err != nil || cp.Runs < 1 || cp.Frontier > cp.Runs {
		return corrupt("bad header")
	}

	cp.Window = d.floats(min(cp.Runs, iid.Window))
	cp.Moments.N = int64(d.uvarint())
	cp.Moments.Sum = d.f64()
	cp.Moments.Min = d.f64()
	cp.Moments.Max = d.f64()
	cp.Moments.SetWelford(d.f64(), d.f64())
	cp.Sketch.N = int64(d.uvarint())
	nz := d.count(len(cp.Sketch.Buckets))
	for i := 0; i < nz && d.err == nil; i++ {
		idx := d.count(len(cp.Sketch.Buckets) - 1)
		cp.Sketch.Buckets[idx] = int64(d.uvarint())
	}
	if block := d.count(1 << 31); block > 0 && d.err == nil {
		total := d.count(cp.Runs)
		touched := 0
		if cp.Frontier > 0 {
			touched = min((cp.Frontier-1)/block+1, total)
		}
		pre := d.floats(touched)
		if d.err == nil {
			cp.Maxima = stats.NewBlockMax(block, 0, total)
			copy(cp.Maxima.Max, pre)
		}
	}
	cp.BadRun = d.count(cp.Runs+1) - 1
	cp.BadVal = d.f64()
	cp.Levels.IL1 = d.cacheStats()
	cp.Levels.DL1 = d.cacheStats()
	cp.Levels.L2 = d.cacheStats()
	cp.Times = d.floats(cp.Runs)

	nr := d.count(cp.Frontier)
	if nr > 0 && d.err == nil {
		cp.Rounds = make([]security.RoundOut, nr)
		for i := range cp.Rounds {
			o := &cp.Rounds[i]
			for j := range o.Succ {
				o.Succ[j] = d.f64()
			}
			for j := range o.Acc {
				o.Acc[j] = d.f64()
			}
			o.Constructed = d.u8() != 0
			o.Bit = d.u8()
			o.Miss = d.u32()
			o.Accesses = d.f64()
		}
	}
	if d.err != nil {
		return corrupt("%v", d.err)
	}
	if len(d.b) != 0 {
		return corrupt("%d trailing bytes", len(d.b))
	}
	if err := cp.check(); err != nil {
		return nil, err
	}
	return cp, nil
}

// appendFloats writes a length-prefixed float64 slice.
func appendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// appendCacheStats writes one level's counters.
func appendCacheStats(b []byte, s cache.Stats) []byte {
	for _, v := range [...]uint64{s.Accesses, s.Hits, s.Misses, s.Evictions, s.Writebacks} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// ckptReader is a bounds-checked little-endian reader: the first overrun
// or out-of-range count latches err and every later read returns zero, so
// decode logic stays linear with one error check at the end.
type ckptReader struct {
	b   []byte
	err error
}

func (d *ckptReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *ckptReader) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.fail("truncated payload")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *ckptReader) u8() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *ckptReader) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *ckptReader) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *ckptReader) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *ckptReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a non-negative count and bounds it (corrupt counts must not
// drive allocations).
func (d *ckptReader) count(max int) int {
	v := d.uvarint()
	if v > uint64(max) {
		d.fail("count %d exceeds bound %d", v, max)
		return 0
	}
	return int(v)
}

func (d *ckptReader) cacheStats() cache.Stats {
	var s cache.Stats
	for _, c := range [...]*uint64{&s.Accesses, &s.Hits, &s.Misses, &s.Evictions, &s.Writebacks} {
		*c = d.uvarint()
	}
	return s
}

// floats reads a length-prefixed float64 slice of at most max entries
// (nil when empty, matching the encoder's treatment of nil slices).
func (d *ckptReader) floats(max int) []float64 {
	n := d.count(max)
	if n == 0 || d.err != nil {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = d.f64()
	}
	if d.err != nil {
		return nil
	}
	return fs
}
