// Package trace defines the memory-access trace model that connects
// workloads to the platform simulator.
//
// A workload is compiled (per memory layout) into a Trace: a flat sequence
// of instruction fetches, loads and stores with byte addresses. Traces are
// deliberately concrete rather than lazily generated because the MBPTA
// campaigns of the paper replay the *same* program across hundreds of runs
// while only the hardware seed changes: building the trace once and
// replaying it makes the run-to-run variability attributable exclusively to
// the randomized cache placement/replacement, exactly as on the paper's
// FPGA platform.
package trace

import "fmt"

// Kind classifies an access.
type Kind uint8

// Access kinds.
const (
	Fetch Kind = iota // instruction fetch (IL1 path)
	Load              // data read (DL1 path)
	Store             // data write (DL1 path)
)

// String returns the mnemonic of the kind.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "F"
	case Load:
		return "L"
	case Store:
		return "S"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one memory reference.
type Access struct {
	Addr uint64
	Kind Kind
}

// Trace is an executable access sequence.
type Trace []Access

// Counts returns the number of fetches, loads and stores.
func (t Trace) Counts() (fetches, loads, stores int) {
	for _, a := range t {
		switch a.Kind {
		case Fetch:
			fetches++
		case Load:
			loads++
		default:
			stores++
		}
	}
	return
}

// Footprint returns the number of distinct cache lines touched for a given
// line size, the quantity the paper calls the data/code footprint.
func (t Trace) Footprint(lineBytes int) int {
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	seen := make(map[uint64]struct{})
	for _, a := range t {
		seen[a.Addr>>shift] = struct{}{}
	}
	return len(seen)
}

// Builder accumulates a Trace with convenience emitters. The zero value is
// ready to use; pre-size with NewBuilder when the length is known.
type Builder struct {
	t Trace
}

// NewBuilder returns a Builder with capacity for n accesses.
func NewBuilder(n int) *Builder { return &Builder{t: make(Trace, 0, n)} }

// Fetch appends an instruction fetch.
func (b *Builder) Fetch(addr uint64) { b.t = append(b.t, Access{addr, Fetch}) }

// Load appends a data load.
func (b *Builder) Load(addr uint64) { b.t = append(b.t, Access{addr, Load}) }

// Store appends a data store.
func (b *Builder) Store(addr uint64) { b.t = append(b.t, Access{addr, Store}) }

// Append appends a pre-built access.
func (b *Builder) Append(a Access) { b.t = append(b.t, a) }

// Trace returns the accumulated trace. The builder must not be used
// afterwards.
func (b *Builder) Trace() Trace { return b.t }
