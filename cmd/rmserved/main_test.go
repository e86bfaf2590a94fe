package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestValidateFlags pins the usage contract of rmserved's numeric knobs:
// invalid values are usage errors (reported on exit code 2 by main, like
// the other commands) that name the offending flag and value.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(2, 64, 1024, 300, 100000, "text"); err != nil {
		t.Fatalf("default flag set rejected: %v", err)
	}
	if err := validateFlags(1, 1, 0, 1, 1, "json"); err != nil {
		t.Fatalf("minimal valid flag set rejected: %v", err)
	}
	bad := []struct {
		name                                string
		jobs, queue, cache, defRuns, maxRun int
		logFormat                           string
		wantFlag                            string
	}{
		{"zero jobs", 0, 64, 1024, 300, 100000, "text", "-jobs"},
		{"negative jobs", -3, 64, 1024, 300, 100000, "text", "-jobs"},
		{"zero queue", 2, 0, 1024, 300, 100000, "text", "-queue"},
		{"negative cache", 2, 64, -1, 300, 100000, "text", "-cache"},
		{"zero default runs", 2, 64, 1024, 0, 100000, "text", "-default-runs"},
		{"zero max runs", 2, 64, 1024, 300, 0, "text", "-max-runs"},
		{"default above max", 2, 64, 1024, 500, 400, "text", "-default-runs"},
		{"unknown log format", 2, 64, 1024, 300, 100000, "xml", "-log"},
	}
	for _, tc := range bad {
		err := validateFlags(tc.jobs, tc.queue, tc.cache, tc.defRuns, tc.maxRun, tc.logFormat)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantFlag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantFlag)
		}
	}
}

// TestValidateResilienceFlags pins the usage contract of the durability
// and drain knobs.
func TestValidateResilienceFlags(t *testing.T) {
	if err := validateResilienceFlags(50, 15*time.Second); err != nil {
		t.Fatalf("default resilience flags rejected: %v", err)
	}
	if err := validateResilienceFlags(1, time.Millisecond); err != nil {
		t.Fatalf("minimal valid resilience flags rejected: %v", err)
	}
	bad := []struct {
		name      string
		ckptEvery int
		drain     time.Duration
		wantFlag  string
	}{
		{"zero cadence", 0, time.Second, "-checkpoint-every"},
		{"zero drain", 50, 0, "-drain-timeout"},
	}
	for _, tc := range bad {
		err := validateResilienceFlags(tc.ckptEvery, tc.drain)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantFlag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantFlag)
		}
	}
}

// TestDrainTimeout: a consumer that opens the NDJSON event stream and
// then never reads must not hold shutdown hostage — drainAndClose
// force-closes the connection once -drain-timeout expires.
func TestDrainTimeout(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	resp, err := http.Post(url+"/v1/campaigns", "application/json",
		strings.NewReader(`{"workload":"tblook01","placement":"RM","runs":100000,"seed":71}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The stuck consumer: a raw connection that requests the stream and
	// never reads a byte of the response.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /v1/campaigns/%s/events HTTP/1.1\r\nHost: rmserved\r\n\r\n", sub.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the handler attach to the stream

	start := time.Now()
	done := make(chan struct{})
	go func() { drainAndClose(srv, svc, 300*time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed with a stuck NDJSON consumer")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %s despite the 300ms timeout", elapsed)
	}
}

// TestListenHost checks that wildcard listens are reported with a
// connectable host, so logs and smoke scripts can paste the URL.
func TestListenHost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := listenHost(ln); !strings.HasPrefix(got, "127.0.0.1:") {
		t.Fatalf("listenHost = %q, want 127.0.0.1:port", got)
	}
	wild, err := net.Listen("tcp", ":0")
	if err != nil {
		t.Skipf("wildcard listen unavailable: %v", err)
	}
	defer wild.Close()
	got := listenHost(wild)
	if !strings.HasPrefix(got, "127.0.0.1:") {
		t.Fatalf("wildcard listenHost = %q, want a connectable 127.0.0.1:port", got)
	}
}

// TestPprofGate: the profiling endpoints exist only behind -pprof, and
// the service API keeps working through the combined mux.
func TestPprofGate(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	plain := httptest.NewServer(handler(svc, false))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof -> %d, want 404", resp.StatusCode)
	}

	prof := httptest.NewServer(handler(svc, true))
	defer prof.Close()
	resp, err = http.Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index -> %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(prof.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz through the pprof mux -> %d", resp.StatusCode)
	}
	resp, err = http.Get(prof.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics through the pprof mux -> %d", resp.StatusCode)
	}
}

// TestServedEndpoints drives the daemon's handler the way a deployment
// smoke does: discovery via /v1/kinds, a security campaign through the
// submit/status flow, and a malformed security block rejected with 400.
func TestServedEndpoints(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/kinds")
	if err != nil {
		t.Fatal(err)
	}
	var kinds struct {
		Kinds     []string `json:"kinds"`
		Protocols []string `json:"security_protocols"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kinds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(kinds.Kinds) != 3 || len(kinds.Protocols) != 3 {
		t.Fatalf("/v1/kinds = %+v", kinds)
	}

	submit := func(body string) (*http.Response, error) {
		return http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	}
	resp, err = submit(`{"placement":"Modulo","runs":6,"seed":2,` +
		`"security":{"protocol":"eviction","replacement":"LRU","probe_lines":64,"probe_stride":4096}}`)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("security submit -> %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/v1/campaigns/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State  string `json:"state"`
			Error  string `json:"error"`
			Result *struct {
				Security *struct {
					Curve []struct {
						Success float64 `json:"success"`
					} `json:"curve"`
				} `json:"security"`
			} `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" {
			if st.Result == nil || st.Result.Security == nil || len(st.Result.Security.Curve) == 0 {
				t.Fatalf("done without a security aggregate: %+v", st.Result)
			}
			// Modulo+LRU with way-size stride is the deterministic KAT
			// point: construction always succeeds.
			last := st.Result.Security.Curve[len(st.Result.Security.Curve)-1]
			if last.Success != 1 {
				t.Fatalf("KAT success = %v, want 1", last.Success)
			}
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("campaign %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish in time")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = submit(`{"placement":"Modulo","runs":6,"security":{"protocol":"nope"}}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad protocol -> %d, want 400", resp.StatusCode)
	}
}
