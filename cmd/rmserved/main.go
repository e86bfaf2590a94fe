// Command rmserved is the campaign service daemon: the Engine behind an
// HTTP API, with a content-addressed result cache so identical campaign
// submissions run once and are served from memory ever after (results are
// a pure function of the request by the determinism contract).
//
// Usage:
//
//	rmserved [-addr :8080] [-workers N] [-jobs N] [-queue N] [-cache N]
//	         [-default-runs N] [-max-runs N] [-log text|json] [-pprof]
//	         [-data-dir DIR] [-checkpoint-every N] [-drain-timeout D]
//
// Endpoints:
//
//	POST /v1/campaigns            submit a campaign (JSON), returns id + fingerprint
//	GET  /v1/campaigns/{id}        status / result (incl. pWCET analysis,
//	                               or the attack aggregate for security campaigns)
//	GET  /v1/campaigns/{id}/events NDJSON stream of live campaign events
//	GET  /v1/policies              placement policy catalog
//	GET  /v1/workloads             workload catalog
//	GET  /v1/kinds                 campaign kinds + security protocol vocabulary
//	GET  /v1/traces                recent campaign trace spans (phase timings)
//	GET  /healthz                  liveness + queue, cache and disk statistics
//	GET  /metrics                  Prometheus text-format metrics
//	GET  /debug/pprof/...          Go profiling endpoints (only with -pprof)
//
// Every request is access-logged (-log selects text or JSON lines) with a
// request ID that is echoed back in the X-Request-Id response header;
// clients may supply their own X-Request-Id to correlate across hops.
//
// Timing campaigns (the default) measure MBPTA or baseline execution
// times; security campaigns (submissions with a "security" block) run
// attacker protocols -- eviction-set construction, the cache-occupancy
// channel, Prime+Probe -- against the selected placement and report
// success-vs-effort curves instead.
//
// -data-dir enables the durable tier: completed results persist across
// restarts, running campaigns checkpoint their streaming frontier every
// -checkpoint-every runs, and a killed daemon resumes its interrupted
// campaigns on the next start — bit-identically, per the checkpoint
// contract.
//
// SIGINT/SIGTERM drain gracefully: the listener stops, in-flight
// campaigns are cancelled via context, and the process exits once the
// job workers have returned. -drain-timeout bounds how long the drain
// waits for open connections (a stream to a stuck consumer is
// force-closed at the deadline, so shutdown always completes).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free one)")
	workers := flag.Int("workers", 0, "simulation pool size (0 = GOMAXPROCS)")
	jobs := flag.Int("jobs", 2, "campaigns executing concurrently")
	queue := flag.Int("queue", 64, "bounded job queue depth (full queue returns 429)")
	cache := flag.Int("cache", 1024, "content-addressed result cache size (entries, LRU)")
	defaultRuns := flag.Int("default-runs", 300, "runs applied to submissions that omit them")
	maxRuns := flag.Int("max-runs", 100000, "largest accepted campaign")
	logFormat := flag.String("log", "text", "access-log format: text or json")
	pprofF := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "", "durable store directory (empty = memory only)")
	ckptEvery := flag.Int("checkpoint-every", 50, "checkpoint cadence in runs (with -data-dir)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "bound on graceful drain; stuck connections are force-closed after it")
	flag.Parse()

	if err := validateFlags(*jobs, *queue, *cache, *defaultRuns, *maxRuns, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "rmserved:", err)
		os.Exit(2)
	}
	if err := validateResilienceFlags(*ckptEvery, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "rmserved:", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmserved:", err)
		os.Exit(1)
	}

	svc, err := service.New(service.Config{
		Workers:         *workers,
		Jobs:            *jobs,
		QueueDepth:      *queue,
		CacheSize:       *cache,
		DefaultRuns:     *defaultRuns,
		MaxRuns:         *maxRuns,
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmserved:", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           service.AccessLog(handler(svc, *pprofF), os.Stderr, *logFormat),
		ReadHeaderTimeout: 10 * time.Second,
	}

	log.SetPrefix("rmserved: ")
	log.SetFlags(log.LstdFlags)
	durable := "off"
	if *dataDir != "" {
		durable = *dataDir
	}
	log.Printf("listening on http://%s (workers=%d jobs=%d queue=%d cache=%d data-dir=%s)",
		listenHost(ln), svc.Engine().Workers(), *jobs, *queue, *cache, durable)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "rmserved:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Print("signal received, draining (in-flight campaigns are cancelled)")
		drainAndClose(srv, svc, *drainTimeout)
		log.Print("drained")
	}
}

// drainAndClose shuts the listener down gracefully, bounded by timeout:
// if open connections (e.g. an NDJSON stream to a consumer that stopped
// reading) outlast the deadline they are force-closed, so a single stuck
// client can never hold SIGTERM hostage. The service drains after the
// HTTP side is quiet either way.
func drainAndClose(srv *http.Server, svc *service.Server, timeout time.Duration) {
	shutdownCtx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("graceful drain expired after %s, force-closing connections (%v)", timeout, err)
		_ = srv.Close()
	}
	svc.Close()
}

// handler assembles the daemon's route table: the service API, plus the
// pprof endpoints when enabled. pprof is opt-in because it exposes heap
// and goroutine internals — never on by default on a network service.
func handler(svc *service.Server, withPprof bool) http.Handler {
	if !withPprof {
		return svc.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// validateFlags checks the numeric service knobs up front: an invalid
// value is a usage error reported on exit code 2, consistent with the
// flag-validation convention of rmsim, mbpta, tracegen and paperbench.
func validateFlags(jobs, queue, cache, defaultRuns, maxRuns int, logFormat string) error {
	switch {
	case jobs < 1:
		return fmt.Errorf("-jobs must be at least 1, got %d", jobs)
	case queue < 1:
		return fmt.Errorf("-queue must be at least 1, got %d", queue)
	case cache < 0:
		return fmt.Errorf("-cache must be non-negative, got %d", cache)
	case defaultRuns < 1:
		return fmt.Errorf("-default-runs must be at least 1, got %d", defaultRuns)
	case maxRuns < 1:
		return fmt.Errorf("-max-runs must be at least 1, got %d", maxRuns)
	case defaultRuns > maxRuns:
		return fmt.Errorf("-default-runs %d exceeds -max-runs %d", defaultRuns, maxRuns)
	case !service.ValidLogFormat(logFormat):
		return fmt.Errorf("-log must be text or json, got %q", logFormat)
	}
	return nil
}

// validateResilienceFlags checks the durability and drain knobs.
func validateResilienceFlags(ckptEvery int, drainTimeout time.Duration) error {
	switch {
	case ckptEvery < 1:
		return fmt.Errorf("-checkpoint-every must be at least 1, got %d", ckptEvery)
	case drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be positive, got %s", drainTimeout)
	}
	return nil
}

// listenHost renders the bound address with a connectable host: a
// wildcard listen ("[::]:8080") is reported as 127.0.0.1 so logs and
// smoke scripts can paste the URL directly.
func listenHost(ln net.Listener) string {
	a, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		return ln.Addr().String()
	}
	if a.IP == nil || a.IP.IsUnspecified() {
		return fmt.Sprintf("127.0.0.1:%d", a.Port)
	}
	return a.String()
}
