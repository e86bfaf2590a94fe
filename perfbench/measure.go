package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
)

// tally collects the outcomes of a measured request stream.
type tally struct {
	golden map[string]string

	attempted int
	failed    int
	failures  []string  // the first few, for the log
	misses    []float64 // ms, latency of each successful miss, scaled once its group ends
	hits      []float64 // ms, the same for hits
	done      work      // what the successful requests did
	queueWait []float64 // ms, service misses
	overhead  []float64 // ms, service misses: latency minus execution
	events    []float64 // NDJSON lines per service miss
	completed []core.WireRequest
	roundSecs []float64         // per round: its requests' time in nominal seconds
	groupSecs map[int][]float64 // per catalog entry: its groups' nominal seconds
	setupSecs []float64         // set-up times taken between rounds, scaled
}

type work struct {
	runs     int
	accesses int64
	requests int
}

func newTally(golden map[string]string) *tally {
	return &tally{golden: golden, groupSecs: map[int][]float64{}}
}

// check compares an outcome's digest with the recorded one.
func (t *tally) check(w core.WireRequest, o outcome) error {
	if o.err != nil {
		return o.err
	}
	fp, err := w.Fingerprint()
	if err != nil {
		return err
	}
	want, ok := t.golden[fp]
	if !ok {
		return fmt.Errorf("no recorded digest for %s (seed %d)", w.Label(), w.Seed)
	}
	if o.digest != want {
		return fmt.Errorf("digest mismatch for %s (seed %d): got %s, recorded %s", w.Label(), w.Seed, o.digest, want)
	}
	return nil
}

// add records one request's outcome.
func (t *tally) add(w core.WireRequest, o outcome, miss bool) {
	t.attempted++
	if err := t.check(w, o); err != nil {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, err.Error())
		}
		return
	}
	ms := o.latency.Seconds() * 1e3
	t.done.runs += o.runs
	t.done.accesses += o.accesses
	t.done.requests += o.requests
	if !miss {
		t.hits = append(t.hits, ms)
		return
	}
	t.misses = append(t.misses, ms)
	t.completed = append(t.completed, w)
	if o.events > 0 {
		t.queueWait = append(t.queueWait, o.queueWait.Seconds()*1e3)
		t.overhead = append(t.overhead, ms-o.exec.Seconds()*1e3)
		t.events = append(t.events, float64(o.events))
	}
}

// Every end-to-end time is scaled by the reference passes made just
// before and after it (see reference.go), which takes out most of the
// host's slow spells. The figures then use every round of the run: the
// rates rest on each catalog entry's median group time over the rounds,
// and the latency quantiles are over every miss or hit. A run measures a
// fixed number of rounds, so both sides of a comparison keep the same
// number.

// rescale multiplies the latencies of the misses and hits recorded since
// there were m of one and h of the other by f.
func (t *tally) rescale(m, h int, f float64) {
	for i := m; i < len(t.misses); i++ {
		t.misses[i] *= f
	}
	for i := h; i < len(t.hits); i++ {
		t.hits[i] *= f
	}
}

// rates returns the simulated runs, simulated accesses and requests per
// nominal host second of a typical round: a round's mean work over the
// sum of every catalog entry's median group time. The median keeps a
// campaign that a change of host speed caught midway from moving the
// figure.
func (t *tally) rates() (runs, accesses, requests float64) {
	var sec float64
	for _, ds := range t.groupSecs {
		sec += median(ds)
	}
	n := float64(len(t.roundSecs)) * sec
	return float64(t.done.runs) / n, float64(t.done.accesses) / n, float64(t.done.requests) / n
}

// measure runs cfg.def.rounds(cfg.seconds) whole rounds of the workload's
// request stream. A round is a sequence of groups, a miss with the hits
// that follow it; a pass of the reference is made before the round and
// after every group, outside the requests' times, and each group's times
// are scaled by the two passes around it. Between rounds it times fresh
// set-ups of the system under test until the run has cfg.setupReps of
// them, counting the one made before the window: spread over the window,
// they do not all fall into one slow burst of the host. A host so slow
// that the rounds overrun the window by 20% ends the window early,
// keeping the run within its time budget.
//
// The process is pinned to one CPU per round, in turn: on a shared host
// each CPU has its own slow spells.
func measure(ctx context.Context, cfg config, s sut, ref *reference) (_ *tally, _ time.Duration, err error) {
	cpus, restore, err := oneCPU()
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if rerr := restore(); err == nil {
			err = rerr
		}
	}()
	p := newPlan(cfg.def, cfg.seed)
	t := newTally(cfg.golden)
	start := time.Now()
	misses := 0
	for round := 0; round < cfg.def.rounds(cfg.seconds); round++ {
		ops := p.nextRound()
		if cfg.maxMisses > 0 {
			ops = truncate(ops, cfg.maxMisses-misses)
		}
		if err := pin(cpus, round); err != nil {
			return nil, 0, err
		}
		var nominal float64
		before := ref.time()
		for rest := ops; len(rest) > 0; {
			n := 1
			for n < len(rest) && !rest[n].miss {
				n++
			}
			m, h := len(t.misses), len(t.hits)
			gs := time.Now()
			for _, o := range rest[:n] {
				do(ctx, s, o, t)
			}
			d := time.Since(gs).Seconds()
			after := ref.time()
			f := refScale([]float64{before, after})
			t.rescale(m, h, f)
			t.groupSecs[rest[0].entry] = append(t.groupSecs[rest[0].entry], d*f)
			nominal += d * f
			before, rest = after, rest[n:]
		}
		t.roundSecs = append(t.roundSecs, nominal)
		if len(t.setupSecs)+1 < cfg.setupReps {
			x, d, err := setUp(ctx, cfg, ref)
			if err != nil {
				return nil, 0, err
			}
			x.close()
			t.setupSecs = append(t.setupSecs, d)
		}
		for _, o := range ops {
			if o.miss {
				misses++
			}
		}
		if ctx.Err() != nil || (cfg.maxMisses > 0 && misses >= cfg.maxMisses) ||
			time.Since(start).Seconds() >= 1.2*cfg.seconds {
			break
		}
	}
	return t, time.Since(start), nil
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB
}

// cpuSet is a CPU affinity mask, the kernel's cpu_set_t.
type cpuSet [16]uint64

func getAffinity() (cpuSet, error) {
	var m cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// cpus lists the CPUs in m.
func (m cpuSet) cpus() []int {
	var out []int
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// oneCPU prepares the process to run on one CPU at a time, set with pin:
// it lists the CPUs the process may use and sets GOMAXPROCS to 1, so that
// the runtime's garbage collector paces itself for the one CPU it gets.
// With more Ps than CPUs its mark workers lag by however long the kernel
// makes them wait, and the heap, hence the peak resident set, grows by
// chance. restore sets back the CPUs and GOMAXPROCS.
func oneCPU() (cpus []int, restore func() error, err error) {
	all, err := getAffinity()
	if err != nil {
		return nil, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return all.cpus(), func() error {
		runtime.GOMAXPROCS(procs)
		return setAffinity(all)
	}, nil
}

// pin sets the process to the i-th of cpus, in turn.
func pin(cpus []int, i int) error {
	var one cpuSet
	c := cpus[i%len(cpus)]
	one[c/64] = 1 << (c % 64)
	return setAffinity(one)
}

// setAffinity sets every thread of the process to m; threads started
// later inherit it from the thread that starts them.
func setAffinity(m cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, e := range tasks {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
			return fmt.Errorf("sched_setaffinity of thread %d: %w", tid, errno)
		}
	}
	return nil
}

// truncate keeps the first n misses of a round with their hits.
func truncate(ops []op, n int) []op {
	for i, o := range ops {
		if o.miss {
			if n == 0 {
				return ops[:i]
			}
			n--
		}
	}
	return ops
}

// do sends one request: a miss submits its fresh campaign, a hit repeats
// a campaign completed earlier in the run. Only the service has hits.
func do(ctx context.Context, s sut, o op, t *tally) {
	if o.miss {
		t.add(o.wire, s.miss(ctx, o.wire), true)
		return
	}
	srv, ok := s.(*serviceSUT)
	if !ok || len(t.completed) == 0 {
		t.add(core.WireRequest{}, outcome{err: fmt.Errorf("no result store holds a completed campaign to repeat")}, false)
		return
	}
	w := t.completed[o.pick%len(t.completed)]
	t.add(w, srv.hit(ctx, w), false)
}

// setUp builds the system under test and warms it with one short
// campaign per kernel. It returns it with the time that took, in nominal
// seconds: scaled by reference passes made just before and after.
func setUp(ctx context.Context, cfg config, ref *reference) (sut, float64, error) {
	before := ref.time()
	start := time.Now()
	s, err := newSUT(cfg)
	if err != nil {
		return nil, 0, err
	}
	for e := range kernels {
		w := cfg.def.request(e, 0)
		w.Runs, w.Analyze = 4, false // too few runs to analyze
		if o := s.miss(ctx, w); o.err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	d := time.Since(start).Seconds()
	return s, d * refScale([]float64{before, ref.time()}), nil
}
