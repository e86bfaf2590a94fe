package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// outcome is what one request produced, as the benchmark saw it.
type outcome struct {
	err      error
	latency  time.Duration
	digest   string
	runs     int   // simulated runs (attack rounds for security campaigns)
	accesses int64 // simulated memory accesses
	requests int   // HTTP requests made (1 per engine call)

	// Service misses only: the job's queue wait and execution time from
	// the status timestamps, and the NDJSON event lines streamed.
	queueWait time.Duration
	exec      time.Duration
	events    int
}

// sut is the system under test of a workload: the engine called
// in-process, or the campaign service over loopback HTTP.
type sut interface {
	// miss submits a fresh campaign and waits for its result.
	miss(ctx context.Context, w core.WireRequest) outcome
	close()
}

func newSUT(cfg config) (sut, error) {
	if cfg.def.service {
		return newServiceSUT()
	}
	return newEngineSUT(cfg.def, workers, nil), nil
}

// engineSUT runs campaigns on a core.Engine.
type engineSUT struct {
	eng *core.Engine
	// wire digests results in their service wire form, so campaigns of
	// the service workload check against the same recorded digests.
	wire bool
}

func newEngineSUT(d workloadDef, workers int, sink func(core.Event)) *engineSUT {
	opts := []core.EngineOption{core.WithWorkers(workers)}
	if sink != nil {
		opts = append(opts, core.WithEvents(sink))
	}
	return &engineSUT{eng: core.NewEngine(opts...), wire: d.service}
}

func (s *engineSUT) miss(ctx context.Context, w core.WireRequest) outcome {
	start := time.Now()
	req, err := w.Request()
	if err != nil {
		return outcome{err: err}
	}
	res, err := s.eng.Run(ctx, req)
	lat := time.Since(start)
	if err != nil {
		return outcome{err: err}
	}
	digest := digestResult(&res)
	if s.wire {
		digest = digestWire(wireOf(&res))
	}
	return outcome{
		latency:  lat,
		digest:   digest,
		runs:     req.Runs,
		accesses: int64(res.Levels.IL1.Accesses + res.Levels.DL1.Accesses),
		requests: 1,
	}
}

func (s *engineSUT) close() {}

// serviceSUT is an in-process campaign service (memory-only, one job at a
// time) behind an httptest server on loopback.
type serviceSUT struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func newServiceSUT() (*serviceSUT, error) {
	srv, err := service.New(service.Config{Workers: workers, Jobs: 1})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &serviceSUT{srv: srv, ts: ts, client: ts.Client()}, nil
}

type submitReply struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

func (s *serviceSUT) miss(ctx context.Context, w core.WireRequest) outcome {
	start := time.Now()
	var sub submitReply
	if err := s.call(ctx, http.MethodPost, "/v1/campaigns", w, &sub); err != nil {
		return outcome{err: err}
	}
	if sub.Cached {
		return outcome{err: fmt.Errorf("fresh campaign %s was served from the store", w.Label())}
	}
	events, err := s.follow(ctx, sub.ID)
	if err != nil {
		return outcome{err: err}
	}
	var st statusResult
	if err := s.call(ctx, http.MethodGet, "/v1/campaigns/"+sub.ID, nil, &st); err != nil {
		return outcome{err: err}
	}
	o := s.outcome(time.Since(start), w, &st)
	o.requests = 3
	o.events = events
	if st.Started != nil && st.Finished != nil {
		o.queueWait = st.Started.Sub(st.Submitted)
		o.exec = st.Finished.Sub(*st.Started)
	}
	return o
}

func (s *serviceSUT) hit(ctx context.Context, w core.WireRequest) outcome {
	start := time.Now()
	var sub submitReply
	if err := s.call(ctx, http.MethodPost, "/v1/campaigns", w, &sub); err != nil {
		return outcome{err: err}
	}
	if !sub.Cached {
		return outcome{err: fmt.Errorf("repeat of %s missed the store", w.Label())}
	}
	var st statusResult
	if err := s.call(ctx, http.MethodGet, "/v1/campaigns/"+sub.ID, nil, &st); err != nil {
		return outcome{err: err}
	}
	o := s.outcome(time.Since(start), w, &st)
	o.requests = 2
	o.runs, o.accesses = 0, 0
	return o
}

func (s *serviceSUT) outcome(lat time.Duration, w core.WireRequest, st *statusResult) outcome {
	if st.State != "done" || st.Result == nil {
		return outcome{err: fmt.Errorf("campaign %s ended %s: %s", w.Label(), st.State, st.Error)}
	}
	r := st.Result
	return outcome{
		latency:  lat,
		digest:   digestWire(r),
		runs:     r.Runs,
		accesses: int64(r.Trace.Accesses) * int64(r.Runs),
	}
}

// call makes one JSON request and decodes the answer; any non-2xx status
// is an error.
func (s *serviceSUT) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// follow reads the campaign's NDJSON event stream up to its terminal
// line and returns the number of lines read.
func (s *serviceSUT) follow(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return lines, fmt.Errorf("events of %s: %w", id, err)
		}
		if ev.Kind == "end" {
			return lines, nil
		}
	}
	if err := sc.Err(); err != nil {
		return lines, fmt.Errorf("events of %s: %w", id, err)
	}
	return lines, errors.New("events of " + id + ": stream ended without an end line")
}

func (s *serviceSUT) close() {
	s.ts.Close()
	s.srv.Close()
}
