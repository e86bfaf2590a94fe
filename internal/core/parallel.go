package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/sim"
)

// LevelStats aggregates the per-level cache counters of a whole campaign.
// Counters are exact sums over runs, so the aggregate is identical for any
// worker count and any scheduling of the shards.
type LevelStats struct {
	IL1, DL1, L2 cache.Stats
}

func (t *LevelStats) add(r sim.Result) {
	t.IL1 = addStats(t.IL1, r.IL1)
	t.DL1 = addStats(t.DL1, r.DL1)
	t.L2 = addStats(t.L2, r.L2)
}

func addStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:   a.Accesses + b.Accesses,
		Hits:       a.Hits + b.Hits,
		Misses:     a.Misses + b.Misses,
		Evictions:  a.Evictions + b.Evictions,
		Writebacks: a.Writebacks + b.Writebacks,
	}
}

// normWorkers resolves a Workers knob: non-positive selects
// runtime.GOMAXPROCS(0), and the pool never exceeds one worker per run.
func normWorkers(workers, runs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Pool is a shared allotment of simulation worker slots. Any number of
// campaigns can execute over one Pool concurrently; the Pool caps how
// many simulation goroutines run at once without influencing any
// campaign's results.
type Pool struct {
	slots chan struct{}
	// Occupancy accounting for observability polls (InUse, Acquires):
	// plain atomics off the simulation path, never consulted by any
	// campaign, so the determinism contract is untouched.
	busy     atomic.Int64
	acquires atomic.Uint64
}

// NewPool returns a pool of the given size; non-positive selects
// runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Workers reports the pool capacity.
func (p *Pool) Workers() int { return cap(p.slots) }

// InUse reports how many slots are currently held — a point-in-time
// occupancy reading for metrics polls.
func (p *Pool) InUse() int { return int(p.busy.Load()) }

// Acquires reports how many slot acquisitions ever succeeded.
func (p *Pool) Acquires() uint64 { return p.acquires.Load() }

// acquire blocks until a slot is free or the context is done.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		p.busy.Add(1)
		p.acquires.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() {
	p.busy.Add(-1)
	<-p.slots
}

// chunkSize picks the claim granularity of a chunked sweep: a handful of
// chunks per worker, so goroutine, pool and claim overhead amortizes
// across a whole chunk while stragglers can still rebalance.
func chunkSize(runs, workers int) int {
	c := (runs + workers*4 - 1) / (workers * 4)
	if c < 1 {
		c = 1
	}
	return c
}

// PanicError is a worker panic converted into an ordinary campaign
// failure: the panicking run's chunk fails, the campaign returns the
// error cleanly, and the Pool (shared with every other campaign) keeps
// all its slots. Value is the recovered panic value and Stack the
// worker's stack at the point of the panic.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: worker panic: %v", e.Value)
}

// protect converts a panic in fn into a *PanicError. Used around the
// worker-supplied build/do callbacks so a panicking workload cannot take
// down the process or leak a pool slot (the deferred release still runs).
func protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}

// shardRuns is the campaign loop's chunked sweep: it executes runs
// [start, end) over the pool's workers. Up to one worker per run each
// acquires a pool slot, calls build once for its private execution
// context (simulators are not safe for concurrent use) and then claims
// contiguous chunks of run indices off a shared cursor, processing each
// with do(c, lo, hi).
// Claiming is dynamic (stragglers rebalance), so do must derive all
// randomness from the run index alone and write its outputs into
// run-indexed slots; results are then bit-identical for any pool size,
// any claiming order and whatever else runs over the pool. start > 0
// resumes a sweep whose earlier runs are already done, with the same
// chunk boundaries a sweep of [start, end) alone would use.
//
// The failure with the lowest chunk start is returned; build and
// pool-acquire failures rank after every run failure. A panic in build or
// do surfaces as a *PanicError failure of its chunk rather than crashing
// the process, and the pool keeps its slots. Cancelling ctx aborts the
// sweep between chunks (and while waiting for pool slots) and returns
// ctx.Err(); a do that polls ctx itself stops sooner. Runs that completed
// keep their run-indexed outputs; the rest are untouched.
func shardRuns[T any](ctx context.Context, pool *Pool, start, end int, build func() (T, error), do func(c T, lo, hi int) error) error {
	if start >= end {
		return nil
	}
	workers := normWorkers(pool.Workers(), end-start)
	chunk := chunkSize(end-start, workers)
	type failure struct {
		at  int
		err error
	}
	fails := make([]failure, workers)
	var next atomic.Int64
	next.Store(int64(start))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := pool.acquire(ctx); err != nil {
				fails[w] = failure{end + w, err}
				return
			}
			defer pool.release()
			var c T
			if err := protect(func() (berr error) {
				c, berr = build()
				return berr
			}); err != nil {
				fails[w] = failure{end + w, err}
				return
			}
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= end {
					return
				}
				// Cancellation stops the claim loop itself, so a do that
				// does not poll ctx still aborts between chunks.
				if err := ctx.Err(); err != nil {
					fails[w] = failure{lo, err}
					return
				}
				hi := min(lo+chunk, end)
				if err := protect(func() error { return do(c, lo, hi) }); err != nil {
					fails[w] = failure{lo, err}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	best := failure{at: -1}
	for _, f := range fails {
		if f.err != nil && (best.err == nil || f.at < best.at) {
			best = f
		}
	}
	return best.err
}
