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
		Flushes:    a.Flushes + b.Flushes,
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
// campaigns (and custom ShardRunsPool sweeps) can execute over one Pool
// concurrently; the Pool caps how many simulation goroutines run at once
// without influencing any campaign's results.
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

// ShardRunsContext executes runs [0, runs) across a pool of workers. Each
// worker calls build once to obtain its private execution context
// (simulators are not safe for concurrent use) and then processes
// contiguous blocks of run indices; do must derive all randomness from the
// run index alone and write any per-run output into run-indexed slots,
// which makes results bit-identical for any worker count. Non-positive
// workers selects runtime.GOMAXPROCS(0). The error of the lowest-numbered
// failing shard is returned. Exposed for drivers whose execution context
// is not a single sim.Core (e.g. the multicore example's sim.System).
//
// Cancelling ctx aborts the sweep between runs (and while waiting for
// pool slots) and returns ctx.Err(). Runs that completed before the
// cancellation have written their run-indexed outputs; the rest are
// untouched.
func ShardRunsContext[T any](ctx context.Context, workers, runs int, build func() (T, error), do func(ctx T, run int) error) error {
	return ShardRunsPool(ctx, NewPool(workers), runs, build, do)
}

// ShardRunsPool runs the sweep over a caller-supplied (possibly shared)
// Pool, with the same determinism and cancellation contract as
// ShardRunsContext: results depend only on run indices, never on the pool
// size or on what else is executing over the pool.
func ShardRunsPool[T any](ctx context.Context, pool *Pool, runs int, build func() (T, error), do func(ctx T, run int) error) error {
	return ShardChunksPool(ctx, pool, runs, build, func(ctxT T, lo, hi int) error {
		for run := lo; run < hi; run++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := do(ctxT, run); err != nil {
				return err
			}
		}
		return nil
	})
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

// ShardChunksPool is the chunked core of every sweep: runs [0, runs) are
// claimed as contiguous chunks off a shared cursor by up to
// normWorkers(pool.Workers(), runs) workers, each of which calls build
// once for its private execution context and then processes whole chunks
// via do(ctx, lo, hi). Chunk claiming is dynamic (stragglers rebalance)
// but outputs must be run-indexed and all randomness derived from run
// indices, so results stay bit-identical for any worker count and any
// claiming order. The failure with the lowest chunk start is returned;
// build and pool-acquire failures rank after every run failure. A panic
// in build or do surfaces as a *PanicError failure of its chunk rather
// than crashing the process; the pool survives.
func ShardChunksPool[T any](ctx context.Context, pool *Pool, runs int, build func() (T, error), do func(ctx T, lo, hi int) error) error {
	if runs <= 0 {
		return nil
	}
	if pool == nil {
		pool = NewPool(0)
	}
	workers := normWorkers(pool.Workers(), runs)
	chunk := chunkSize(runs, workers)
	type failure struct {
		at  int
		err error
	}
	fails := make([]failure, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := pool.acquire(ctx); err != nil {
				fails[w] = failure{runs + w, err}
				return
			}
			defer pool.release()
			var ctxT T
			if err := protect(func() (berr error) {
				ctxT, berr = build()
				return berr
			}); err != nil {
				fails[w] = failure{runs + w, err}
				return
			}
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= runs {
					return
				}
				// Cancellation stops the claim loop itself, so a do that
				// does not poll ctx still aborts between chunks.
				if err := ctx.Err(); err != nil {
					fails[w] = failure{lo, err}
					return
				}
				hi := min(lo+chunk, runs)
				if err := protect(func() error { return do(ctxT, lo, hi) }); err != nil {
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

// shardChunksRange shards runs [start, end) of a campaign whose earlier
// runs are already covered (checkpoint resume): chunk claiming restarts
// at start, absolute run indices flow through to do, and the usual
// determinism contract applies — the resumed tail is bit-identical to the
// same runs of an uninterrupted sweep.
func shardChunksRange[T any](ctx context.Context, pool *Pool, start, end int, build func() (T, error), do func(ctx T, lo, hi int) error) error {
	if start >= end {
		return nil
	}
	return ShardChunksPool(ctx, pool, end-start, build, func(ctxT T, lo, hi int) error {
		return do(ctxT, start+lo, start+hi)
	})
}

// runShards shards a single-core campaign over a Pool: each worker builds
// its own platform from spec, do performs one run on it, per-run cycle
// counts stream into a chunk-local accumulator (and into times[run] when
// the caller keeps the buffered vector — times may be nil), and the
// per-level counters ride the same chunk accumulators (integer sums are
// order-independent, so the aggregate is as schedule-proof as the
// measurement vector — and merging them through acc's run-index-ordered
// frontier makes every checkpoint's counters consistent with its
// frontier). start > 0 resumes a checkpointed campaign: only runs
// [start, acc.total) execute; the restored prefix is already merged.
// onRun, if non-nil, observes every completed run (called from worker
// goroutines).
func runShards(ctx context.Context, pool *Pool, spec PlatformSpec, start int, times []float64, acc *campaignAccum, do func(p *sim.Core, run int) (sim.Result, error), onRun func(run int, r sim.Result)) (LevelStats, error) {
	err := shardChunksRange(ctx, pool, start, acc.total, spec.Build, func(p *sim.Core, lo, hi int) error {
		ca := acc.newChunk(lo, hi)
		for run := lo; run < hi; run++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, err := do(p, run)
			if err != nil {
				return err
			}
			x := float64(r.Cycles)
			if times != nil {
				times[run] = x
			}
			if run < len(acc.window) {
				acc.window[run] = x
			}
			ca.add(run, x)
			ca.levels.add(r)
			if onRun != nil {
				onRun(run, r)
			}
		}
		acc.commit(ca)
		return nil
	})
	if err != nil {
		return LevelStats{}, err
	}
	return acc.levelsTotal(), nil
}
