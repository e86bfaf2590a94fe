package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Metric kinds as exposed in the TYPE line and the JSON dump.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one label set of one family, backed by exactly one of the
// instrument pointers (or a poll function for *Func registrations).
type series struct {
	labels    []Label
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	gaugeFn   func() float64
	counterFn func() uint64
}

// family is one named metric with its registered series.
type family struct {
	name, help, typ string
	// scale multiplies values at exposition time (1 for plain metrics;
	// 1e-9 for latency histograms recorded in nanoseconds and exposed in
	// seconds, per Prometheus convention).
	scale  float64
	series []*series
}

// Registry holds named metrics and renders them as Prometheus text format
// (WritePrometheus, or ServeHTTP for a GET /metrics endpoint) and as a
// JSON document (MarshalJSON) with p50/p99/p999 extracted per histogram.
//
// Registration is idempotent: asking for a (name, labels) pair that
// already exists returns the same instance, so package-level wiring can
// re-derive its handles cheaply. Registering an existing name as a
// different metric type panics (a programming error, like a duplicate
// flag). A Registry is safe for concurrent use; recording through the
// returned instruments is lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor finds or creates the named family, enforcing type agreement.
func (r *Registry) familyFor(name, help, typ string, scale float64) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, scale: scale}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// seriesFor finds or creates the series with the given labels.
func (f *family) seriesFor(labels []Label) (*series, bool) {
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s, false
		}
	}
	s := &series{labels: append([]Label(nil), labels...)}
	sort.SliceStable(s.labels, func(i, j int) bool { return s.labels[i].Name < s.labels[j].Name })
	f.series = append(f.series, s)
	return s, true
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	// Registered label sets are sorted by name; sort the probe likewise.
	probe := append([]Label(nil), b...)
	sort.SliceStable(probe, func(i, j int) bool { return probe[i].Name < probe[j].Name })
	for i := range a {
		if a[i] != probe[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns) the counter with the given name and
// labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, created := r.familyFor(name, help, typeCounter, 1).seriesFor(labels)
	if created {
		s.counter = &Counter{}
	}
	if s.counter == nil {
		panic(fmt.Sprintf("obs: metric %s%s registered as a polled counter", name, renderLabels(labels)))
	}
	return s.counter
}

// Gauge registers (or returns) the gauge with the given name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, created := r.familyFor(name, help, typeGauge, 1).seriesFor(labels)
	if created {
		s.gauge = &Gauge{}
	}
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: metric %s%s registered as a polled gauge", name, renderLabels(labels)))
	}
	return s.gauge
}

// LatencyHistogram registers (or returns) a latency histogram: Observe
// takes nanoseconds, exposition divides by 1e9 so bucket bounds, sums and
// quantiles come out in seconds (name it *_seconds, per the Prometheus
// convention).
func (r *Registry) LatencyHistogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, created := r.familyFor(name, help, typeHistogram, 1e-9).seriesFor(labels)
	if created {
		s.hist = &Histogram{}
	}
	return s.hist
}

// GaugeFunc registers a gauge polled at exposition time — for values that
// already live elsewhere (queue lengths, pool occupancy) and should not be
// double-tracked.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.familyFor(name, help, typeGauge, 1).seriesFor(labels)
	s.gaugeFn = fn
	s.gauge = nil
}

// CounterFunc registers a counter polled at exposition time — for
// monotone counts maintained elsewhere (store hit/miss/eviction atomics).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.familyFor(name, help, typeCounter, 1).seriesFor(labels)
	s.counterFn = fn
	s.counter = nil
}

// value reads the current value of a non-histogram series.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.counterFn != nil:
		return float64(s.counterFn())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	case s.gaugeFn != nil:
		return s.gaugeFn()
	}
	return 0
}

// renderLabels formats a sorted label set as {a="x",b="y"} ("" when
// empty).
func renderLabels(labels []Label, extra ...Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range append(append([]Label(nil), labels...), extra...) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Histograms render cumulative
// _bucket series for each non-empty bucket plus the mandatory le="+Inf",
// with bounds and sums scaled per the family (seconds for latency
// histograms). Output order is registration order, so scrapes diff
// cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		r.mu.Lock()
		srs := append([]*series(nil), f.series...)
		r.mu.Unlock()
		for _, s := range srs {
			if f.typ == typeHistogram {
				if err := writeHistogram(w, f, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.value())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, f *family, s *series) error {
	snap := s.hist.Snapshot()
	var cum uint64
	for i, c := range snap.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		le := formatFloat(BucketUpper(i) * f.scale)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, L("le", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, L("le", "+Inf")), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatFloat(float64(snap.Sum)*f.scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), snap.Count)
	return err
}

// ServeHTTP makes the registry a GET /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// seriesJSON is the JSON form of one series.
type seriesJSON struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Histogram summary fields.
	Count *uint64  `json:"count,omitempty"`
	Sum   *float64 `json:"sum,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
	P999  *float64 `json:"p999,omitempty"`
}

// familyJSON is the JSON form of one metric family.
type familyJSON struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help"`
	Series []seriesJSON `json:"series"`
}

// MarshalJSON dumps the registry as an array of metric families — the
// same data as the Prometheus exposition, with histograms summarized as
// count/sum/p50/p99/p999 (in scaled units). paperbench -metrics writes
// this next to its CSVs.
func (r *Registry) MarshalJSON() ([]byte, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	out := make([]familyJSON, 0, len(fams))
	for _, f := range fams {
		fj := familyJSON{Name: f.name, Type: f.typ, Help: f.help, Series: []seriesJSON{}}
		r.mu.Lock()
		srs := append([]*series(nil), f.series...)
		r.mu.Unlock()
		for _, s := range srs {
			sj := seriesJSON{}
			if len(s.labels) > 0 {
				sj.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					sj.Labels[l.Name] = l.Value
				}
			}
			if f.typ == typeHistogram {
				snap := s.hist.Snapshot()
				count := snap.Count
				sum := float64(snap.Sum) * f.scale
				p50 := snap.Quantile(0.50) * f.scale
				p99 := snap.Quantile(0.99) * f.scale
				p999 := snap.Quantile(0.999) * f.scale
				sj.Count, sj.Sum, sj.P50, sj.P99, sj.P999 = &count, &sum, &p50, &p99, &p999
			} else {
				v := s.value()
				sj.Value = &v
			}
			fj.Series = append(fj.Series, sj)
		}
		out = append(out, fj)
	}
	return json.Marshal(out)
}
