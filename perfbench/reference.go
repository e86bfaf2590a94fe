package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// A shared host runs the same code at different speeds from one moment
// to the next: on a 2-vCPU Intel Xeon guest, with no stolen time, the
// same campaign ran up to 1.7 times slower, in spells from a fraction of
// a second to a whole run. Picking the faster rounds of a run cannot undo
// a spell that covers the run. So every end-to-end time is scaled by the
// speed of a fixed reference workload timed beside it: multiplied by
// refNominal over the mean duration of the reference passes made just
// before and after it. On that host a pass took 2.2-2.5 ms in fast spells
// and 3.3-3.7 ms in slow ones, and a campaign's time moved with it by a
// power of 0.95-1.15 (fitted over one run of each campaign workload), so
// the scaling takes out most of a spell's effect, not all of it.
//
// The reference is made of Go standard-library work only (JSON encoding,
// float formatting and parsing, sorting, a map, flate compression), so no
// change to the repository's code changes it. Once warm it allocates one
// object a pass, so it does not pace the program's garbage collector.

// refNominal is the duration of one reference pass on an unhurried 2-vCPU
// Intel Xeon host. The scaled times are in seconds of that host.
const refNominal = 2500 * time.Microsecond

type refItem struct {
	Name  string    `json:"name"`
	Vals  []float64 `json:"vals"`
	Count int       `json:"count"`
}

// reference is the fixed reference workload.
type reference struct {
	items []refItem
	enc   *json.Encoder
	out   bytes.Buffer
	text  []byte
	ints  []int
	tmp   []int
	set   map[int]int
	blob  []byte
	zout  bytes.Buffer
	zw    *flate.Writer
	sink  uint64
}

func newReference() (*reference, error) {
	rng := rand.New(rand.NewPCG(3, 4))
	r := &reference{ints: make([]int, 20000), tmp: make([]int, 20000), set: make(map[int]int, 1<<12), blob: make([]byte, 64<<10)}
	for i := 0; i < 150; i++ {
		it := refItem{Name: fmt.Sprintf("item-%d", rng.IntN(1e6)), Count: rng.IntN(1000)}
		for j := 0; j < 8; j++ {
			it.Vals = append(it.Vals, rng.Float64())
		}
		r.items = append(r.items, it)
	}
	for i := range r.ints {
		r.ints[i] = rng.IntN(1 << 30)
	}
	for i := range r.blob {
		r.blob[i] = byte(rng.IntN(16))
	}
	r.enc = json.NewEncoder(&r.out)
	zw, err := flate.NewWriter(&r.zout, 1)
	if err != nil {
		return nil, err
	}
	r.zw = zw
	for i := 0; i < 3; i++ { // warm: buffers grown, pools filled
		r.pass()
	}
	return r, nil
}

// time returns the duration of one reference pass in seconds, made from a
// collected heap and after an untimed pass: the program's garbage, or its
// data in the CPU caches, would otherwise slow the reference by however
// much the program leaves behind, and the scaling would cancel part of a
// change in the program.
func (r *reference) time() float64 {
	runtime.GC()
	r.pass()
	return r.pass().Seconds()
}

// pass runs the reference workload once and returns its duration.
func (r *reference) pass() time.Duration {
	start := time.Now()
	r.out.Reset()
	if err := r.enc.Encode(r.items); err != nil {
		panic(err) // the items are plain data
	}
	r.text = r.text[:0]
	var sum float64
	for _, it := range r.items {
		for _, v := range it.Vals {
			r.text = strconv.AppendFloat(r.text[:0], v, 'g', -1, 64)
			x, _ := strconv.ParseFloat(string(r.text), 64)
			sum += x
		}
	}
	copy(r.tmp, r.ints)
	slices.Sort(r.tmp)
	clear(r.set)
	for i, x := range r.ints[:8000] {
		r.set[x&0xfff] += i
	}
	r.zout.Reset()
	r.zw.Reset(&r.zout)
	r.zw.Write(r.blob)
	r.zw.Close()
	r.sink += uint64(r.out.Len()+len(r.set)+r.zout.Len()) + uint64(sum)
	return time.Since(start)
}

// refScale returns refNominal over the median of the given reference
// pass durations, in seconds: the factor that turns host time measured
// beside those passes into nominal host time.
func refScale(passes []float64) float64 { return refNominal.Seconds() / median(passes) }
