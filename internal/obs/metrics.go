package obs

import "sync/atomic"

// Counter is a monotonically increasing metric (requests served, runs
// completed, cache misses). The zero value is ready to use; obtain shared,
// named instances from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//rm:hotpath
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight jobs, queue depth).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
//
//rm:hotpath
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
}

// Add adds n (negative to decrease).
//
//rm:hotpath
func (g *Gauge) Add(n int64) {
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
