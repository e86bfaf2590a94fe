package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// System models the paper's four-core platform: per-core private L1s and
// L2 partitions, with a shared memory bus arbitrated round-robin. The L2
// partitioning removes storage interference (as in the paper); the bus
// model retains bandwidth interference, which is what the MBPTA multicore
// literature the paper cites analyses. This is the substrate behind the
// multicore example and the contention ablation bench.
type System struct {
	cores []*Core
	lanes []lane // per core: RunAll's transaction log and merge state
}

// busService is the bus occupancy of one memory transaction: its transfer
// slot. The rest of memLatency is DRAM latency.
const busService = memLatency / 2

// NewSystem builds n identical cores from cfg.
func NewSystem(cfg Config, n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: system needs at least one core, got %d", n)
	}
	s := &System{lanes: make([]lane, n)}
	for i := 0; i < n; i++ {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// Reseed reseeds every core with seeds derived from runSeed.
func (s *System) Reseed(runSeed uint64) {
	for i, c := range s.cores {
		c.Reseed(runSeed ^ uint64(i+1)*0x9E3779B97F4A7C15)
	}
}

// RunAll replays one compiled trace per core concurrently under the
// shared-bus model and returns per-core results; a nil entry is an idle
// core. Each Result reports this call only. RunAll panics if len(cts)
// differs from the core count or a compiled line size is not the
// platform's.
//
// An op that fills a core's L2 partition needs the bus once, and once
// more for a dirty victim's writeback. The bus serves one transaction at
// a time for busService cycles, and the core resumes memLatency after the
// grant. The op that starts first wins, ties going round-robin from the
// last grantee: a time-composable bus, as in the MBPTA multicore designs
// the paper cites. Phase 1 replays each core alone with RunCompiled,
// which logs those ops (txnLog); phase 2 (merge) replays only the logs
// through the bus. A core's Cycles are its RunCompiled cycles plus its
// waits for the bus and, per writeback, memLatency-writeback, the bus
// transaction's length beyond RunCompiled's writeback charge. Its Stats
// are RunCompiled's. After the merge a lane keeps at most logSlack times
// the log capacity the call used.
func (s *System) RunAll(cts []*trace.Compiled) []Result {
	if len(cts) != len(s.cores) {
		panic("sim: RunAll needs one compiled trace per core")
	}
	for i, c := range s.cores {
		if ct := cts[i]; ct != nil && ct.LineBytes != c.lineBytes {
			badLineSize(ct.LineBytes, c.lineBytes)
		}
	}
	results := make([]Result, len(cts))
	for i, c := range s.cores {
		l := &s.lanes[i]
		*l = lane{txns: l.txns[:0]}
		if cts[i] != nil {
			c.log = &l.txns
			results[i] = c.RunCompiled(cts[i])
			c.log = nil
			l.seek(cts[i].Ops)
		}
	}
	s.merge(cts)
	for i := range results {
		l := &s.lanes[i]
		results[i].Cycles += l.bus
		if cap(l.txns) > logSlack*len(l.txns) {
			l.txns = make(txnLog, 0, len(l.txns))
		}
	}
	return results
}

// logSlack bounds the log capacity a lane keeps between calls, as a
// multiple of the last call's use: a co-runner that logged a long stream
// once does not hold its peak for the System's life.
const logSlack = 4

// txn is one op that filled the L2, as RunCompiled logs it for RunAll:
// its index, its L2 access bits and the loop's cycles before its L2
// charge.
type txn struct {
	op     uint32
	bits   cache.AccessBits
	cycles uint64
}

// txnLog is a core's log of txns; nil turns logging off.
type txnLog []txn

// note logs op i if the log is on and its L2 access b filled a line.
//
//rm:hotpath
func (l *txnLog) note(i int, cycles uint64, b cache.AccessBits) {
	if b&cache.BitFilled != 0 && l != nil {
		l.add(i, cycles, b)
	}
}

// add appends to the log; noinline keeps the append out of RunCompiled's
// hot-path span.
//
//go:noinline
func (l *txnLog) add(i int, cycles uint64, b cache.AccessBits) {
	*l = append(*l, txn{uint32(i), b, cycles})
}

// lane is a core's part of the merge: its log and the next txn in it,
// the ops walked up to that txn, and the cycles they charge outside the
// log (l1Hit per access, storeBus per store), the cycles the bus has
// added so far, and the txn op's start.
type lane struct {
	txns           txnLog
	next, op       int
	base, bus, now uint64
}

// seek walks ops up to the next txn and sets now to its op's start.
func (l *lane) seek(ops []trace.Op) {
	if l.next == len(l.txns) {
		return
	}
	x := l.txns[l.next]
	for ; l.op < int(x.op); l.op++ {
		l.base += l1Hit * (1 + uint64(ops[l.op].Trail))
		if ops[l.op].Kind == trace.Store {
			l.base += storeBus
		}
	}
	l.now = l.base + x.cycles + l.bus
}

// merge replays the lanes' txns through the bus, serving first the one
// whose op starts first, ties going round-robin from the last grantee:
// the order in which the cores, stepping op by op from the earliest
// clock, would reach them.
func (s *System) merge(cts []*trace.Compiled) {
	n, last := len(s.lanes), len(s.lanes)-1
	var busFree uint64
	for {
		sel := -1
		for off := 1; off <= n; off++ {
			i := (last + off) % n
			if l := &s.lanes[i]; l.next < len(l.txns) && (sel < 0 || l.now < s.lanes[sel].now) {
				sel = i
			}
		}
		if sel < 0 {
			return
		}
		l, ops := &s.lanes[sel], cts[sel].Ops
		x := l.txns[l.next]
		t := l.now + l1Hit + l2Hit // the request, after the L1 and L2 lookups
		if ops[x.op].Kind == trace.Store {
			t = l.now + l1Hit + storeBus
		}
		k := 1 // the fill, then a dirty victim's writeback
		if x.bits&cache.BitWriteback != 0 {
			k, l.bus = 2, l.bus+memLatency-writeback
		}
		for ; k > 0; k-- {
			grant := max(t, busFree)
			l.bus += grant - t
			busFree = grant + busService
			t = grant + memLatency // the slot, then the rest of the DRAM latency
		}
		last = sel
		l.next++
		l.seek(ops)
	}
}
