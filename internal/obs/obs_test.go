package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/workload"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	for range 42 {
		c.Inc()
	}
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0, 1 and the clamped -5 land in bucket 0 ([0,2)); 2 and 3 in
	// bucket 1 ([2,4)); 4 and 7 in bucket 2; 8 in bucket 3; 1023 in
	// bucket 9 ([512,1024)); 1024 in bucket 10.
	want := map[int]uint64{0: 3, 1: 2, 2: 2, 3: 1, 9: 1, 10: 1}
	for i, c := range s.Buckets {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if s.Count != 10 {
		t.Errorf("count = %d, want 10", s.Count)
	}
	if s.Sum != 0+1+2+3+4+7+8+1023+1024+0 {
		t.Errorf("sum = %d", s.Sum)
	}
}

// TestHistogramQuantiles pins the quantile estimator against hand-computed
// values: rank = q*N walked over the cumulative buckets, interpolated
// linearly inside the containing bucket.
func TestHistogramQuantiles(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		if got := h.Snapshot().Quantile(0.5); got != 0 {
			t.Fatalf("empty p50 = %v, want 0", got)
		}
	})
	t.Run("single observation", func(t *testing.T) {
		// 10 lands in [8,16); rank 0.5 of 1 interpolates to the bucket
		// midpoint 12.
		var h Histogram
		h.Observe(10)
		if got := h.Snapshot().Quantile(0.5); got != 12 {
			t.Fatalf("p50 = %v, want 12", got)
		}
	})
	t.Run("uniform bucket", func(t *testing.T) {
		// 100 observations in [4,8): p50 = 4 + 4*(50/100) = 6,
		// p99 = 4 + 4*(99/100) = 7.96, p999 = 7.996.
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Observe(4)
		}
		for _, tc := range []struct{ q, want float64 }{
			{0.50, 6}, {0.99, 7.96}, {0.999, 7.996},
		} {
			if got := h.Snapshot().Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
			}
		}
	})
	t.Run("two buckets", func(t *testing.T) {
		// 50 in [2,4) and 50 in [1024,2048): p50 exhausts the first
		// bucket exactly (rank 50 -> its upper bound 4); p99 has rank 99,
		// 49 into the second bucket's 50: 1024 + 1024*(49/50) = 2027.52.
		var h Histogram
		for i := 0; i < 50; i++ {
			h.Observe(2)
			h.Observe(1024)
		}
		if got := h.Snapshot().Quantile(0.5); got != 4 {
			t.Errorf("p50 = %v, want 4", got)
		}
		if got := h.Snapshot().Quantile(0.99); math.Abs(got-2027.52) > 1e-9 {
			t.Errorf("p99 = %v, want 2027.52", got)
		}
	})
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestRegistryIdempotentAndTypeConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c := r.Counter("x_total", "help", L("k", "w")); c == a {
		t.Fatal("distinct labels shared an instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rm_test_total", "A counter.", L("kind", "mbpta"))
	for range 3 {
		c.Inc()
	}
	r.Gauge("rm_test_gauge", "A gauge.").Set(-2)
	r.GaugeFunc("rm_test_polled", "A polled gauge.", func() float64 { return 1.5 })
	h := r.LatencyHistogram("rm_test_seconds", "A latency histogram.")
	h.Observe(1_500_000_000) // 1.5s -> bucket [2^30, 2^31) ns
	h.Observe(1_500_000_000)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP rm_test_total A counter.",
		"# TYPE rm_test_total counter",
		`rm_test_total{kind="mbpta"} 3`,
		"rm_test_gauge -2",
		"rm_test_polled 1.5",
		"# TYPE rm_test_seconds histogram",
		fmt.Sprintf(`rm_test_seconds_bucket{le="%g"} 2`, math.Ldexp(1, 31)*1e-9),
		`rm_test_seconds_bucket{le="+Inf"} 2`,
		"rm_test_seconds_sum 3",
		"rm_test_seconds_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rm_j_total", "c")
	for range 5 {
		c.Inc()
	}
	h := r.LatencyHistogram("rm_j_seconds", "h")
	// 100 observations of 4ns: p50 = 6ns = 6e-9s after scaling.
	for i := 0; i < 100; i++ {
		h.Observe(4)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string `json:"name"`
		Type   string `json:"type"`
		Series []struct {
			Value *float64 `json:"value"`
			Count *uint64  `json:"count"`
			P50   *float64 `json:"p50"`
			P99   *float64 `json:"p99"`
			P999  *float64 `json:"p999"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &fams); err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("families = %d, want 2", len(fams))
	}
	if *fams[0].Series[0].Value != 5 {
		t.Errorf("counter value = %v", *fams[0].Series[0].Value)
	}
	hs := fams[1].Series[0]
	if *hs.Count != 100 {
		t.Errorf("hist count = %d", *hs.Count)
	}
	if math.Abs(*hs.P50-6e-9) > 1e-18 {
		t.Errorf("p50 = %v, want 6e-9", *hs.P50)
	}
	if math.Abs(*hs.P99-7.96e-9) > 1e-18 {
		t.Errorf("p99 = %v, want 7.96e-9", *hs.P99)
	}
	if math.Abs(*hs.P999-7.996e-9) > 1e-18 {
		t.Errorf("p999 = %v, want 7.996e-9", *hs.P999)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.add(CampaignTrace{Campaign: fmt.Sprintf("c%d", i)})
	}
	if got := tr.Total(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent = %d spans, want 3", len(recent))
	}
	for i, want := range []string{"c4", "c3", "c2"} {
		if recent[i].Campaign != want {
			t.Errorf("recent[%d] = %s, want %s", i, recent[i].Campaign, want)
		}
	}
}

// TestEngineCollector drives the collector with a synthetic event
// sequence and checks the counters, histograms and trace span it
// produces.
func TestEngineCollector(t *testing.T) {
	reg := NewRegistry()
	c := NewEngineCollector(reg, NewTracer(4))
	c.Resolve = func(campaign string) (string, string) {
		return "display-" + campaign, "abcdef0123456789deadbeef"
	}
	var forwarded []core.EventKind
	sink := c.Sink(func(ev core.Event) { forwarded = append(forwarded, ev.Kind) })

	evs := []core.Event{
		{Kind: core.CampaignStarted, Campaign: "fp1", CampaignKind: core.KindMBPTA, Total: 3},
		{Kind: core.PhaseDone, Campaign: "fp1", CampaignKind: core.KindMBPTA, Phase: core.PhaseCompile},
		{Kind: core.RunCompleted, Campaign: "fp1", CampaignKind: core.KindMBPTA, Run: 0, Done: 1, Total: 3},
		{Kind: core.RunCompleted, Campaign: "fp1", CampaignKind: core.KindMBPTA, Run: 1, Done: 2, Total: 3},
		{Kind: core.RunCompleted, Campaign: "fp1", CampaignKind: core.KindMBPTA, Run: 2, Done: 3, Total: 3},
		{Kind: core.PhaseDone, Campaign: "fp1", CampaignKind: core.KindMBPTA, Phase: core.PhaseReplay, Done: 3},
		{Kind: core.PhaseDone, Campaign: "fp1", CampaignKind: core.KindMBPTA, Phase: core.PhaseAnalyze, Done: 3},
		{Kind: core.CampaignFinished, Campaign: "fp1", CampaignKind: core.KindMBPTA, Done: 3, Total: 3},
	}
	for _, ev := range evs {
		sink(ev)
	}
	if len(forwarded) != len(evs) {
		t.Fatalf("forwarded %d events, want %d", len(forwarded), len(evs))
	}
	if got := reg.Counter("rm_runs_total", "", L("kind", "mbpta")).Value(); got != 3 {
		t.Errorf("rm_runs_total{mbpta} = %d, want 3", got)
	}
	if got := reg.Counter("rm_campaign_runs_total", "").Value(); got != 3 {
		t.Errorf("rm_campaign_runs_total = %d, want 3", got)
	}
	// The peak-accumulator gauge follows snapshot high-water marks and
	// never regresses on a smaller later snapshot.
	sink(core.Event{Kind: core.SnapshotTaken, Campaign: "fp1", CampaignKind: core.KindMBPTA,
		Snapshot: &core.Snapshot{Runs: 2, Total: 3, AccumBytes: 4096}, Done: 2, Total: 3})
	sink(core.Event{Kind: core.SnapshotTaken, Campaign: "fp1", CampaignKind: core.KindMBPTA,
		Snapshot: &core.Snapshot{Runs: 3, Total: 3, AccumBytes: 1024}, Done: 3, Total: 3})
	if got := reg.Gauge("rm_accumulator_peak_bytes", "").Value(); got != 4096 {
		t.Errorf("rm_accumulator_peak_bytes = %d, want 4096 (the peak)", got)
	}
	if got := reg.Counter("rm_campaigns_total", "", L("kind", "mbpta"), L("status", "ok")).Value(); got != 1 {
		t.Errorf("rm_campaigns_total{mbpta,ok} = %d, want 1", got)
	}
	if got := reg.Gauge("rm_campaigns_inflight", "").Value(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
	if got := reg.LatencyHistogram("rm_campaign_latency_seconds", "", L("kind", "mbpta")).Snapshot().Count; got != 1 {
		t.Errorf("latency count = %d, want 1", got)
	}
	for _, ph := range []string{"compile", "replay", "analyze"} {
		if got := reg.LatencyHistogram("rm_campaign_phase_seconds", "", L("kind", "mbpta"), L("phase", ph)).Snapshot().Count; got != 1 {
			t.Errorf("phase %s count = %d, want 1", ph, got)
		}
	}
	spans := c.Tracer().Recent()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Campaign != "display-fp1" {
		t.Errorf("span campaign = %q", sp.Campaign)
	}
	if sp.Fingerprint != "abcdef0123456789" {
		t.Errorf("span fingerprint = %q, want the 16-char prefix", sp.Fingerprint)
	}
	if sp.Kind != "mbpta" || sp.Runs != 3 || sp.Error != "" {
		t.Errorf("span = %+v", sp)
	}
	if sp.CompileSeconds < 0 || sp.ReplaySeconds < 0 || sp.AnalyzeSeconds < 0 || sp.TotalSeconds < 0 {
		t.Errorf("negative phase timing: %+v", sp)
	}

	// A failing campaign lands on the error counter and carries the error
	// on its span.
	sink(core.Event{Kind: core.CampaignStarted, Campaign: "fp2", CampaignKind: core.KindBaseline, Total: 1})
	sink(core.Event{Kind: core.CampaignFinished, Campaign: "fp2", CampaignKind: core.KindBaseline,
		Err: errors.New("boom"), Total: 1})
	if got := reg.Counter("rm_campaigns_total", "", L("kind", "baseline"), L("status", "error")).Value(); got != 1 {
		t.Errorf("rm_campaigns_total{baseline,error} = %d, want 1", got)
	}
	if spans := c.Tracer().Recent(); spans[0].Error != "boom" {
		t.Errorf("error span = %+v", spans[0])
	}
}

// TestEngineCollectorLive runs a real (tiny) campaign through an Engine
// with the collector installed and checks the end-to-end wiring: run
// counts match, exactly one latency observation, one trace span with the
// replay phase populated.
func TestEngineCollectorLive(t *testing.T) {
	w, err := workload.ByName("puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	c := NewEngineCollector(reg, nil)
	eng := core.NewEngine(core.WithWorkers(2), core.WithEvents(c.Observe))
	req := core.Request{Spec: core.PaperPlatform(placement.RM), Workload: w, Runs: 8, MasterSeed: 1}
	if _, err := eng.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("rm_runs_total", "", L("kind", "mbpta")).Value(); got != 8 {
		t.Errorf("rm_runs_total = %d, want 8", got)
	}
	snap := reg.LatencyHistogram("rm_campaign_latency_seconds", "", L("kind", "mbpta")).Snapshot()
	if snap.Count != 1 {
		t.Fatalf("latency count = %d, want 1", snap.Count)
	}
	spans := c.Tracer().Recent()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].ReplaySeconds <= 0 {
		t.Errorf("replay phase not timed: %+v", spans[0])
	}
	if spans[0].TotalSeconds < spans[0].ReplaySeconds {
		t.Errorf("total %v < replay %v", spans[0].TotalSeconds, spans[0].ReplaySeconds)
	}
}
