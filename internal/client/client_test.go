package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// recorded swaps the client's sleeper for one that records the schedule
// without real time passing.
func recorded(c *Client) *[]time.Duration {
	var ds []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		ds = append(ds, d)
		return ctx.Err()
	}
	return &ds
}

// flakyServer answers 429 (with Retry-After) for the first fail
// requests, then succeeds.
func flakyServer(t *testing.T, fail int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(fail) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "job queue full, retry later"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]string{"id": "c-000001", "state": "queued"})
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestBackoffDeterministic: the retry schedule is a pure function of the
// jitter seed — same seed, same delays; different seed, different
// delays.
func TestBackoffDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		ts, _ := flakyServer(t, 3)
		c := New(ts.URL, WithJitterSeed(seed),
			WithBackoff(Backoff{Tries: 5, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}))
		ds := recorded(c)
		if _, err := c.Submit(context.Background(), core.WireRequest{Workload: "x", Placement: "RM", Runs: 1}); err != nil {
			t.Fatalf("submit with retries: %v", err)
		}
		return *ds
	}
	a, b := schedule(7), schedule(7)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("schedules %v / %v, want 3 delays each", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Every delay honours the server's Retry-After: 1 hint (it exceeds
	// the 80ms backoff cap, and flattens the jitter — seed divergence is
	// checked in TestJitterBounds, where no hint applies).
	for i, d := range a {
		if d != time.Second {
			t.Fatalf("delay %d = %v, want the 1s Retry-After floor", i, d)
		}
	}
}

// TestJitterBounds: without a Retry-After hint the delays stay inside
// the jitter window [base/2, base) of the exponential schedule, and
// different jitter seeds produce different schedules.
func TestJitterBounds(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
	}))
	t.Cleanup(ts.Close)
	schedule := func(seed uint64) []time.Duration {
		c := New(ts.URL, WithJitterSeed(seed),
			WithBackoff(Backoff{Tries: 4, Base: 100 * time.Millisecond, Max: time.Second}))
		ds := recorded(c)
		if _, err := c.Status(context.Background(), "c-000001"); err == nil {
			t.Fatal("exhausted retries reported success")
		}
		return *ds
	}
	ds := schedule(3)
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(ds) != len(want) {
		t.Fatalf("%d delays, want %d", len(ds), len(want))
	}
	for i, d := range ds {
		if d < want[i]/2 || d >= want[i] {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, d, want[i]/2, want[i])
		}
	}
	other := schedule(4)
	same := true
	for i := range ds {
		if ds[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestPermanentErrorNoRetry: a 400 is final — one attempt, a typed
// *APIError, no backoff.
func TestPermanentErrorNoRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "unknown workload"})
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithJitterSeed(1))
	ds := recorded(c)
	_, err := c.Submit(context.Background(), core.WireRequest{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Temporary() {
		t.Fatalf("err = %v, want permanent 400 APIError", err)
	}
	if ae.Message != "unknown workload" {
		t.Fatalf("message = %q", ae.Message)
	}
	if calls.Load() != 1 || len(*ds) != 0 {
		t.Fatalf("calls=%d delays=%v, want exactly one attempt", calls.Load(), *ds)
	}
}

// TestRetryCounters: two 429s then success cost three calls, two
// backoff sleeps and no exhaustion.
func TestRetryCounters(t *testing.T) {
	ts, calls := flakyServer(t, 2)
	c := New(ts.URL, WithJitterSeed(1),
		WithBackoff(Backoff{Tries: 4, Base: time.Millisecond, Max: 2 * time.Millisecond}))
	ds := recorded(c)
	if _, err := c.Submit(context.Background(), core.WireRequest{Workload: "x", Placement: "RM", Runs: 1}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3 (two rejections, one success)", got)
	}
	if got := len(*ds); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestDeadlinePropagation: a context deadline cuts the retry loop short
// — during the backoff sleep, not after the budget.
func TestDeadlinePropagation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithJitterSeed(1),
		WithBackoff(Backoff{Tries: 10, Base: time.Second, Max: time.Second}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Status(ctx, "c-000001")
	if err == nil || !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v, ctx = %v", err, ctx.Err())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

// TestEndToEnd drives the client against the real service: submit, wait,
// stream, health.
func TestEndToEnd(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := New(ts.URL, WithJitterSeed(1))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := c.Submit(ctx, core.WireRequest{Workload: "tblook01", Placement: "RM", Runs: 40, Seed: 9, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Fingerprint == "" {
		t.Fatalf("submit = %+v", sub)
	}
	st, err := c.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Result == nil {
		t.Fatalf("wait = %+v", st)
	}
	var res struct {
		Runs  int       `json:"runs"`
		Times []float64 `json:"times"`
	}
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Runs != 40 || len(res.Times) != 40 {
		t.Fatalf("result runs=%d times=%d", res.Runs, len(res.Times))
	}

	var events []Event
	if err := c.Stream(ctx, sub.ID, func(ev Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1].Kind != "end" || events[len(events)-1].State != "done" {
		t.Fatalf("stream ended with %+v", events)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(h, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("health = %s", h)
	}

	// Unknown id: 404 is permanent and typed.
	_, err = c.Status(ctx, "c-999999")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown id err = %v", err)
	}
}
