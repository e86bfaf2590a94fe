package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// testServer builds a small service over an httptest listener.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postCampaign submits body to the service at base.
func postCampaign(t *testing.T, base, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// waitDone polls a job on the service at base to its terminal state.
func waitDone(t *testing.T, base, id string) statusResponse {
	t.Helper()
	// Generous to survive the race detector's ~10x simulation slowdown
	// on the long synth160k campaigns; the poll returns as soon as the
	// campaign reaches a terminal state, so fast runs are unaffected.
	deadline := time.Now().Add(10 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st statusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("campaign did not finish in time")
	return statusResponse{}
}

// TestDuplicateSubmissionCoalesces is the acceptance check of the
// subsystem: submitting the same campaign twice yields one Engine
// execution and two identical results -- same fingerprint, bit-identical
// Times -- verified through the store's hit/miss counters.
func TestDuplicateSubmissionCoalesces(t *testing.T) {
	s, ts := testServer(t, Config{})
	const body = `{"workload":"puwmod01","placement":"RM","runs":50,"seed":9}`

	first, code := postCampaign(t, ts.URL, body)
	if code != http.StatusAccepted || first.Cached {
		t.Fatalf("first submission: code=%d cached=%v, want 202 fresh", code, first.Cached)
	}
	st1 := waitDone(t, ts.URL, first.ID)
	if st1.State != "done" || st1.Result == nil {
		t.Fatalf("first campaign state=%s error=%q", st1.State, st1.Error)
	}

	// Resubmit with a different placement spelling and an added display
	// name: same content, so it must be served from cache.
	second, code := postCampaign(t, ts.URL, `{"name":"again","workload":"puwmod01","placement":"rm","runs":50,"seed":9}`)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("second submission: code=%d cached=%v, want 200 cached", code, second.Cached)
	}
	if second.Fingerprint != first.Fingerprint || second.ID != first.ID {
		t.Fatalf("resubmission got (%s, %s), want the original (%s, %s)",
			second.ID, second.Fingerprint, first.ID, first.Fingerprint)
	}
	st2 := waitDone(t, ts.URL, second.ID)
	if len(st2.Result.Times) != len(st1.Result.Times) {
		t.Fatalf("result lengths differ: %d vs %d", len(st2.Result.Times), len(st1.Result.Times))
	}
	for i := range st1.Result.Times {
		if st1.Result.Times[i] != st2.Result.Times[i] {
			t.Fatalf("Times[%d] differs: %v vs %v", i, st1.Result.Times[i], st2.Result.Times[i])
		}
	}

	stats := s.Store().Stats()
	if stats.Misses != 1 {
		t.Fatalf("store misses = %d, want exactly 1 (one Engine execution)", stats.Misses)
	}
	if stats.Hits != 1 {
		t.Fatalf("store hits = %d, want exactly 1 (the resubmission)", stats.Hits)
	}
}

// TestEventStream checks the NDJSON contract: the stream delivers live
// Events for an in-flight campaign and terminates with an "end" line on
// completion. Events stream live-only (late subscribers get just the end
// line, see TestEventStreamAfterCompletion), and since the PR-5 replay
// kernels a 60-run campaign finishes in single-digit milliseconds —
// faster than the HTTP subscribe — so the test pins the target behind a
// blocker campaign on a single job slot: the subscriber attaches while
// the target is still queued, deterministically ahead of its first run.
func TestEventStream(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	if _, code := postCampaign(t, ts.URL, `{"workload":"synth160k","placement":"RM","runs":30,"seed":9}`); code != http.StatusAccepted {
		t.Fatalf("blocker submit code = %d", code)
	}
	sub, code := postCampaign(t, ts.URL, `{"workload":"puwmod01","placement":"RM","runs":60,"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var events []wireEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.Kind != "end" || last.State != "done" {
		t.Fatalf("stream did not terminate with end/done: %+v", last)
	}
	runs := 0
	for _, ev := range events {
		if ev.Kind == "run" {
			runs++
			if ev.Campaign != "puwmod01" {
				t.Fatalf("event exposes internal campaign label %q", ev.Campaign)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no run events in the stream")
	}
}

// TestEventStreamAfterCompletion: a stream opened on a finished job
// terminates immediately with the end line.
func TestEventStreamAfterCompletion(t *testing.T) {
	_, ts := testServer(t, Config{})
	sub, _ := postCampaign(t, ts.URL, `{"workload":"puwmod01","placement":"RM","runs":40,"seed":4}`)
	waitDone(t, ts.URL, sub.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/campaigns/"+sub.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last wireEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "end" || last.State != "done" {
		t.Fatalf("finished-job stream ended with %+v", last)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxRuns: 100})
	cases := []struct {
		body string
		want int
	}{
		{`{"workload":"nope","placement":"RM","runs":10}`, http.StatusBadRequest},
		{`{"workload":"puwmod01","placement":"nope","runs":10}`, http.StatusBadRequest},
		{`{"workload":"puwmod01","placement":"RM","runs":101}`, http.StatusBadRequest},
		{`{"workload":"puwmod01","placement":"RM","runs":10,"sed":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, code := postCampaign(t, ts.URL, c.body); code != c.want {
			t.Errorf("POST %s -> %d, want %d", c.body, code, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/c-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id -> %d, want 404", resp.StatusCode)
	}
}

func TestCatalogsAndHealth(t *testing.T) {
	_, ts := testServer(t, Config{})
	var policies []policyJSON
	getJSON(t, ts, "/v1/policies", &policies)
	if len(policies) != 5 {
		t.Fatalf("got %d policies, want 5", len(policies))
	}
	names := map[string]bool{}
	for _, p := range policies {
		names[p.Name] = p.Randomized
	}
	if !names["RM"] || !names["hRP"] || names["Modulo"] {
		t.Fatalf("randomized flags wrong: %+v", policies)
	}

	var wls []workloadJSON
	getJSON(t, ts, "/v1/workloads", &wls)
	if len(wls) != 14 { // 11 EEMBC-like + 3 synthetic
		t.Fatalf("got %d workloads, want 14", len(wls))
	}

	var h healthJSON
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" || h.Workers < 1 {
		t.Fatalf("health = %+v", h)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultRunsEnterFingerprint: omitting runs resolves the server
// default before fingerprinting, so an explicit submission of the same
// size is the same content.
func TestDefaultRunsEnterFingerprint(t *testing.T) {
	_, ts := testServer(t, Config{DefaultRuns: 40})
	implicit, _ := postCampaign(t, ts.URL, `{"workload":"puwmod01","placement":"RM","seed":5}`)
	explicit, _ := postCampaign(t, ts.URL, `{"workload":"puwmod01","placement":"RM","runs":40,"seed":5}`)
	if implicit.Fingerprint != explicit.Fingerprint {
		t.Fatalf("default-runs fingerprint %s != explicit %s", implicit.Fingerprint, explicit.Fingerprint)
	}
}

// TestQueueFullRejects: with 1 job slot and a 1-deep queue, a third
// distinct concurrent submission is rejected with 429 (transient
// pressure, retry) and is not left behind as a phantom cache entry.
func TestQueueFullRejects(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 1, QueueDepth: 1, Workers: 1})
	// Occupy the single worker and the single queue slot with slow-ish
	// campaigns, then overflow.
	var rejectedBody string
	sawReject := false
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"workload":"tblook01","placement":"RM","runs":200,"seed":%d}`, 100+i)
		_, code := postCampaign(t, ts.URL, body)
		if code == http.StatusTooManyRequests {
			sawReject = true
			rejectedBody = body
			break
		}
	}
	if !sawReject {
		t.Skip("queue never filled on this host; timing dependent")
	}
	// The rejected fingerprint must not be resident.
	var wire core.WireRequest
	if err := json.Unmarshal([]byte(rejectedBody), &wire); err != nil {
		t.Fatal(err)
	}
	fp, err := wire.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Store().Peek(fp); ok {
		t.Fatal("rejected submission left a phantom store entry")
	}
}

// TestGracefulDrain: Close cancels in-flight campaigns via context and
// leaves every admitted job in a terminal state.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{Workers: 1, Jobs: 1, QueueDepth: 8}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		sub, code := postCampaign(t, ts.URL, fmt.Sprintf(`{"workload":"tblook01","placement":"RM","runs":5000,"seed":%d}`, 200+i))
		if code != http.StatusAccepted {
			t.Fatalf("submission %d -> %d", i, code)
		}
		ids = append(ids, sub.ID)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain within 30s")
	}
	for _, id := range ids {
		j, ok := s.JobByID(id)
		if !ok {
			t.Fatalf("job %s vanished during drain", id)
		}
		if st := j.State(); st != JobCanceled && st != JobDone && st != JobFailed {
			t.Fatalf("job %s left in state %s after Close", id, st)
		}
	}
	// Submissions after drain are refused.
	if _, _, err := s.Submit(core.WireRequest{Workload: "puwmod01", Placement: "RM", Runs: 10}); err == nil {
		t.Fatal("Submit accepted after Close")
	}
}

// TestSecurityCampaignService runs a security campaign end to end through
// the HTTP surface: fresh submission, aggregate in the status result,
// cache hit on an equivalent respelling, and kind discovery.
func TestSecurityCampaignService(t *testing.T) {
	s, ts := testServer(t, Config{})
	const body = `{"placement":"RM","runs":12,"seed":4,` +
		`"security":{"protocol":"primeprobe","replacement":"LRU","probe_lines":128,"trials":8}}`
	first, code := postCampaign(t, ts.URL, body)
	if code != http.StatusAccepted || first.Cached {
		t.Fatalf("first security submission: code=%d cached=%v", code, first.Cached)
	}
	st := waitDone(t, ts.URL, first.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("security campaign state=%s error=%q", st.State, st.Error)
	}
	if st.Result.Security == nil || len(st.Result.Security.Curve) == 0 {
		t.Fatalf("security result missing aggregate: %+v", st.Result)
	}
	if st.Result.Security.Protocol != "primeprobe" || st.Result.Security.Rounds != 12 {
		t.Fatalf("aggregate header %+v", st.Result.Security)
	}
	if len(st.Result.Times) != 12 {
		t.Fatalf("security Times has %d rounds, want 12", len(st.Result.Times))
	}

	// Equivalent respelling (alias protocol, default replacement spelling
	// differs in case) must be served from cache.
	second, code := postCampaign(t, ts.URL, `{"placement":"rm","runs":12,"seed":4,`+
		`"security":{"protocol":"prime+probe","replacement":"lru","probe_lines":128,"trials":8}}`)
	if code != http.StatusOK || !second.Cached || second.ID != first.ID {
		t.Fatalf("respelled security submission: code=%d cached=%v id=%s (want %s)",
			code, second.Cached, second.ID, first.ID)
	}
	if misses := s.Store().Stats().Misses; misses != 1 {
		t.Fatalf("store misses = %d, want 1", misses)
	}

	var kinds kindsJSON
	getJSON(t, ts, "/v1/kinds", &kinds)
	if len(kinds.Kinds) != 3 || kinds.Kinds[2] != "security" {
		t.Fatalf("kinds = %+v", kinds.Kinds)
	}
	if len(kinds.Protocols) != 3 || len(kinds.Replacements) != 4 {
		t.Fatalf("security vocabulary = %+v / %+v", kinds.Protocols, kinds.Replacements)
	}
}

// TestSecuritySubmitValidation: malformed security submissions map to 400
// with the core error text, not 500s or silent acceptance.
func TestSecuritySubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	bad := []string{
		`{"placement":"RM","runs":10,"security":{"protocol":"flushreload"}}`,
		`{"placement":"RM","runs":10,"security":{"protocol":"eviction","replacement":"clock"}}`,
		`{"placement":"RM","runs":10,"security":{"protocol":"eviction","probe_lines":2}}`,
		`{"placement":"RM","runs":10,"security":{"protocol":"eviction","probe_stride":33}}`,
		`{"placement":"RM","runs":10,"security":{"protocol":"eviction","trials":8}}`,
		`{"placement":"RM","runs":10,"baseline":true,"security":{"protocol":"eviction"}}`,
		`{"placement":"RM","runs":10,"analyze":true,"security":{"protocol":"eviction"}}`,
		`{"placement":"RM","workload":"tblook01","runs":10,"security":{"protocol":"eviction"}}`,
		`{"placement":"RM","runs":10,"security":{"protocol":"eviction","budget":9}}`,
	}
	for _, body := range bad {
		if _, code := postCampaign(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("POST %s -> %d, want 400", body, code)
		}
	}
}

// TestCampaignSnapshot: the status endpoint carries the streaming
// snapshot — after completion it covers every run and agrees with the
// final result, so pollers that watched it converge end on the answer.
func TestCampaignSnapshot(t *testing.T) {
	_, ts := testServer(t, Config{})
	sub, code := postCampaign(t, ts.URL, `{"workload":"tblook01","placement":"RM","runs":60,"seed":5,"analyze":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}
	st := waitDone(t, ts.URL, sub.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("state=%s error=%q", st.State, st.Error)
	}
	if st.Snapshot == nil {
		t.Fatal("done status has no snapshot")
	}
	if st.Snapshot.Runs != 60 || st.Snapshot.Total != 60 {
		t.Fatalf("final snapshot covers %d/%d, want 60/60", st.Snapshot.Runs, st.Snapshot.Total)
	}
	if st.Snapshot.Mean != st.Result.Mean || st.Snapshot.Max != st.Result.HWM {
		t.Fatalf("snapshot mean/max (%v, %v) disagree with result (%v, %v)",
			st.Snapshot.Mean, st.Snapshot.Max, st.Result.Mean, st.Result.HWM)
	}
	if st.Snapshot.AccumBytes <= 0 {
		t.Fatal("snapshot reports no accumulator footprint")
	}
	if st.Snapshot.Blocks < 2 || st.Snapshot.PWCET12 <= st.Snapshot.Max {
		t.Fatalf("converged pWCET snapshot implausible: %+v", st.Snapshot)
	}
}

// TestKeepTimesFalseService: a keep_times=false submission completes with
// aggregates and analysis but no times vector, and does not share a cache
// entry with the buffered form of the same campaign.
func TestKeepTimesFalseService(t *testing.T) {
	_, ts := testServer(t, Config{})
	drop, code := postCampaign(t, ts.URL, `{"workload":"tblook01","placement":"RM","runs":60,"seed":5,"analyze":true,"keep_times":false}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}
	keep, code := postCampaign(t, ts.URL, `{"workload":"tblook01","placement":"RM","runs":60,"seed":5,"analyze":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("keep submit code = %d (coalesced onto the drop job?)", code)
	}
	if keep.Fingerprint == drop.Fingerprint {
		t.Fatal("keep and drop submissions share a fingerprint")
	}
	st := waitDone(t, ts.URL, drop.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("state=%s error=%q", st.State, st.Error)
	}
	if len(st.Result.Times) != 0 {
		t.Fatalf("keep_times=false result carries %d times", len(st.Result.Times))
	}
	if st.Result.Runs != 60 {
		t.Fatalf("runs = %d, want 60 (from the streaming summary)", st.Result.Runs)
	}
	if st.Result.Analysis == nil || st.Result.HWM <= 0 || st.Result.Mean <= 0 {
		t.Fatalf("dropped-times result lost its aggregates: %+v", st.Result)
	}
	kst := waitDone(t, ts.URL, keep.ID)
	if len(kst.Result.Times) != 60 {
		t.Fatalf("buffered twin has %d times, want 60", len(kst.Result.Times))
	}
	if kst.Result.HWM != st.Result.HWM || kst.Result.Mean != st.Result.Mean {
		t.Fatal("keep and drop twins disagree on aggregates")
	}
}
