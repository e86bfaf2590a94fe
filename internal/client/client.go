// Package client is the resilient Go client for the rmserved campaign
// API: submit, poll, and stream with context-deadline propagation,
// jittered exponential backoff, and typed handling of the service's
// pressure signals (429 + Retry-After for a full queue, 503 for a
// draining server).
//
// The retry jitter draws from an injected PRNG seed, never from ambient
// entropy or the clock, so a given (seed, response sequence) always
// produces the same delay schedule — retry behaviour is testable
// bit-exactly, the same determinism discipline the simulation core
// follows (and rmlint enforces on this package).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
)

// APIError is a non-2xx answer from the service, with the pieces a
// caller needs to react in a typed way instead of string-matching.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the service's error text.
	Message string
	// RetryAfter is the parsed Retry-After hint on 429 responses (zero
	// when the service sent none).
	RetryAfter time.Duration
}

// Error renders the status and service message.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Temporary reports whether retrying the same request can succeed: queue
// pressure (429), a draining server (503), and transient server-side
// failures (5xx). Validation errors (4xx) are permanent.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests ||
		e.Status == http.StatusServiceUnavailable ||
		e.Status >= http.StatusInternalServerError
}

// Backoff shapes the retry schedule: Tries attempts total, exponential
// delays from Base capped at Max, each jittered into [d/2, d) by the
// client's PRNG. A 429's Retry-After hint raises a delay that would
// undercut it.
type Backoff struct {
	Tries int
	Base  time.Duration
	Max   time.Duration
}

// DefaultBackoff is five attempts spanning roughly two seconds.
func DefaultBackoff() Backoff {
	return Backoff{Tries: 5, Base: 100 * time.Millisecond, Max: 2 * time.Second}
}

// Client talks to one rmserved instance. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	bo   Backoff

	mu sync.Mutex // guards g
	g  *prng.PRNG

	// sleep waits out a backoff delay; tests replace it to record the
	// schedule without real time passing. Must honour ctx.
	sleep func(ctx context.Context, d time.Duration) error
}

// Option configures a Client.
type Option func(*clientConfig)

type clientConfig struct {
	bo   Backoff
	seed uint64
}

// WithBackoff replaces the retry schedule.
func WithBackoff(bo Backoff) Option { return func(c *clientConfig) { c.bo = bo } }

// WithJitterSeed seeds the backoff jitter stream. Two clients with the
// same seed retry on an identical schedule.
func WithJitterSeed(seed uint64) Option { return func(c *clientConfig) { c.seed = seed } }

// New builds a client for the service at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	cfg := clientConfig{bo: DefaultBackoff()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.bo.Tries < 1 {
		cfg.bo.Tries = 1
	}
	if cfg.bo.Base <= 0 {
		cfg.bo.Base = 100 * time.Millisecond
	}
	if cfg.bo.Max < cfg.bo.Base {
		cfg.bo.Max = cfg.bo.Base
	}
	c := &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{},
		bo:   cfg.bo,
		g:    prng.New(cfg.seed),
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	return c
}

// delay computes the jittered delay before retry number attempt (0 for
// the first retry), honouring a Retry-After hint from the last answer.
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := c.bo.Base
	for i := 0; i < attempt && d < c.bo.Max; i++ {
		d *= 2
	}
	if d > c.bo.Max {
		d = c.bo.Max
	}
	c.mu.Lock()
	j := c.g.Float64()
	c.mu.Unlock()
	d = d/2 + time.Duration(j*float64(d/2))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// do runs one API call through the retry loop: permanent failures and
// context expiry return immediately, temporary ones back off and retry
// until the budget is spent.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var last error
	for attempt := 0; attempt < c.bo.Tries; attempt++ {
		if attempt > 0 {
			var ra time.Duration
			var ae *APIError
			if errors.As(last, &ae) {
				ra = ae.RetryAfter
			}
			if err := c.sleep(ctx, c.delay(attempt-1, ra)); err != nil {
				return fmt.Errorf("client: giving up during backoff: %w (last error: %v)", err, last)
			}
		}
		err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		last = err
		var ae *APIError
		if errors.As(err, &ae) {
			if !ae.Temporary() {
				return err
			}
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", c.bo.Tries, last)
}

// once performs a single HTTP exchange and decodes the JSON answer.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiErrorOf(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s answer: %w", method, path, err)
	}
	return nil
}

// apiErrorOf turns a non-2xx response into a typed *APIError.
func apiErrorOf(resp *http.Response) error {
	var wire struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
		if json.Unmarshal(b, &wire) == nil && wire.Error != "" {
			msg = wire.Error
		}
	}
	ae := &APIError{Status: resp.StatusCode, Message: msg}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// SubmitResponse answers Submit.
type SubmitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	Cached      bool   `json:"cached"`
}

// CampaignStatus is the status/result view of one campaign. Result and
// Snapshot stay raw JSON: the client relays them, it does not interpret
// the statistics.
type CampaignStatus struct {
	ID          string          `json:"id"`
	Fingerprint string          `json:"fingerprint"`
	State       string          `json:"state"`
	RunsDone    int             `json:"runs_done"`
	Error       string          `json:"error,omitempty"`
	Snapshot    json.RawMessage `json:"snapshot,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the campaign reached a final state.
func (s CampaignStatus) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// Event is one line of the campaign event stream.
type Event struct {
	Kind     string          `json:"kind"`
	Campaign string          `json:"campaign"`
	Phase    string          `json:"phase,omitempty"`
	Run      int             `json:"run,omitempty"`
	Cycles   float64         `json:"cycles,omitempty"`
	Done     int             `json:"done"`
	Total    int             `json:"total,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	State    string          `json:"state,omitempty"`
	Err      string          `json:"error,omitempty"`
}

// Submit sends one campaign request and returns the service's ticket.
// Queue-full rejections (429) are retried on the backoff schedule,
// honouring the service's Retry-After hint.
func (c *Client) Submit(ctx context.Context, wire core.WireRequest) (SubmitResponse, error) {
	body, err := json.Marshal(wire)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("client: encoding request: %w", err)
	}
	var out SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", body, &out); err != nil {
		return SubmitResponse{}, err
	}
	return out, nil
}

// Status fetches the current status of a campaign.
func (c *Client) Status(ctx context.Context, id string) (CampaignStatus, error) {
	var out CampaignStatus
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &out); err != nil {
		return CampaignStatus{}, err
	}
	return out, nil
}

// Wait polls a campaign until it reaches a terminal state, the context
// expires, or the retry budget of a poll is spent. poll <= 0 defaults to
// 200ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (CampaignStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return CampaignStatus{}, err
		}
		if st.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return st, fmt.Errorf("client: waiting for %s: %w", id, err)
		}
	}
}

// Stream consumes the campaign's NDJSON event stream, invoking fn per
// event until the terminal "end" line (delivered to fn as well), a
// callback error, or context expiry. A connection that drops mid-stream
// reconnects on the backoff schedule; intermediate events may be lost
// across the gap (the stream is live-only), the terminal line is not.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	var last error
	for attempt := 0; attempt < c.bo.Tries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.delay(attempt-1, 0)); err != nil {
				return fmt.Errorf("client: giving up during backoff: %w (last error: %v)", err, last)
			}
		}
		ended, err := c.streamOnce(ctx, id, fn)
		if ended || err == nil {
			return err
		}
		last = err
		var ae *APIError
		if errors.As(err, &ae) && !ae.Temporary() {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return fmt.Errorf("client: %d stream attempts exhausted: %w", c.bo.Tries, last)
}

// streamOnce consumes one connection's worth of events. ended reports
// that the terminal line was seen or the callback stopped the stream —
// either way the stream is over and err is the final word.
func (c *Client) streamOnce(ctx context.Context, id string, fn func(Event) error) (ended bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return false, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, apiErrorOf(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return false, fmt.Errorf("client: bad stream line %q: %w", sc.Text(), err)
		}
		if err := fn(ev); err != nil {
			return true, err
		}
		if ev.Kind == "end" {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("client: stream interrupted: %w", err)
	}
	return false, errors.New("client: stream closed before the end line")
}

// Health fetches /healthz as raw JSON.
func (c *Client) Health(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
