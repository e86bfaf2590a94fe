// Package obs is the repository's allocation-free instrumentation kit:
// atomic counters and gauges, fixed-boundary log2 latency histograms with
// deterministic p50/p99/p999 extraction, a Registry with Prometheus
// text-format exposition and a JSON dump, and per-campaign trace spans
// built from the Engine's event stream.
//
// Two contracts shape the package:
//
//   - Zero-alloc recording. Counter.Inc/Add, Gauge.Set/Add and
//     Histogram.Observe are single atomic operations on pre-registered
//     state, annotated //rm:hotpath and gated by the same static and
//     escape-analysis checks as the replay kernels. Registration
//     (Registry.Counter and friends) may allocate; recording never does.
//
//   - Determinism. Campaign results are a pure function of the request;
//     instrumentation must observe without influencing. The package is
//     registered with the lint suite's determinism analyzer, so its single
//     wall-clock read (now, below) carries an audited //rm:deterministic
//     justification, and no result-affecting package may read a clock at
//     all. All timing derives from core.Event deliveries at run/phase
//     boundaries — never from inside the replay kernels — so results are
//     byte-identical with metrics on or off.
package obs

import "time"

// now is the package's single wall-clock read. Every timestamp in obs
// (campaign latency, phase spans, trace starts) funnels through here, so
// the determinism analyzer audits exactly one waived call site.
func now() time.Time {
	return time.Now() //rm:deterministic observability timestamp at an event boundary; never feeds campaign results
}
