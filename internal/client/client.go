// Package client is the Go client for deadmemd's /v1 API, built for
// flaky networks and restarting servers: every call retries transient
// failures (connection errors, 5xx, 429) with exponential backoff and
// full jitter, honors the server's Retry-After hint, never sleeps past
// the caller's context deadline, and trips a half-open circuit breaker
// under sustained failure so a dead server costs microseconds, not
// timeouts.
//
// The response body of a successful call is byte-identical to the
// corresponding CLI's stdout for the same sources and options — the
// CLIs' -server mode is implemented on top of this package.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"deadmembers/internal/api"
)

// Config configures a Client. Zero fields take the documented defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8100".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client

	// MaxAttempts bounds tries per call, first attempt included
	// (default 6; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling; it doubles per
	// attempt up to MaxBackoff, and the actual sleep is uniformly
	// random in [0, ceiling] — "full jitter" (default 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling (default 5s).
	MaxBackoff time.Duration

	// BreakerThreshold is the consecutive transport-failure count that
	// opens the circuit (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before a
	// half-open probe is allowed through (default 10s).
	BreakerCooldown time.Duration

	// Rand is the jitter source (default math/rand; tests pin it).
	Rand func() float64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.Rand == nil {
		var mu sync.Mutex
		c.Rand = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return rand.Float64()
		}
	}
	return c
}

// Client calls deadmemd. Safe for concurrent use.
type Client struct {
	cfg Config
	clk clock
	br  *breaker // guards cfg.BaseURL
}

// New returns a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{cfg: cfg, clk: realClock{}}
	// The breaker reads time through the client so that a clock swapped
	// in after New (tests do) drives both the retry loop and the breaker.
	c.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, func() time.Time { return c.clk.Now() })
	return c
}

// Result is a successful response.
type Result struct {
	// Body is byte-identical to the corresponding CLI's stdout.
	Body []byte
	// ContentType is the response Content-Type.
	ContentType string
	// Degraded reports the server's degraded marker: a pipeline stage
	// panicked and was contained, so the result may be incomplete.
	Degraded bool
}

// APIError is a non-retryable server rejection (4xx): the request
// itself is wrong, and retrying it cannot help.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server rejected request (%d): %s", e.Status, strings.TrimSpace(e.Message))
}

// TransientError is a retryable server-side rejection — 429 load
// shedding or a 5xx — carrying the server's Retry-After hint. When the
// retry loop gives up, the final error wraps the last TransientError so
// callers can recover the server's last status and Retry-After with
// errors.As.
type TransientError struct {
	Status     int
	RetryAfter time.Duration
	Message    string
}

func (e *TransientError) Error() string {
	if e.Status == http.StatusTooManyRequests {
		return fmt.Sprintf("server busy (429): %s", e.Message)
	}
	return fmt.Sprintf("server error (%d): %s", e.Status, e.Message)
}

// ErrCircuitOpen is returned without touching the network while the
// circuit breaker is open.
var ErrCircuitOpen = errors.New("circuit breaker open: server failing, not attempting request")

// Analyze calls POST /v1/analyze (deadmem's report).
func (c *Client) Analyze(ctx context.Context, req *api.Request) (*Result, error) {
	return c.do(ctx, "/v1/analyze", req)
}

// Lint calls POST /v1/lint (deadlint's findings).
func (c *Client) Lint(ctx context.Context, req *api.Request) (*Result, error) {
	return c.do(ctx, "/v1/lint", req)
}

// Strip calls POST /v1/strip (deadstrip's transformed sources).
func (c *Client) Strip(ctx context.Context, req *api.Request) (*Result, error) {
	return c.do(ctx, "/v1/strip", req)
}

// do runs the retry loop for one logical call.
func (c *Client) do(ctx context.Context, path string, req *api.Request) (*Result, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := c.br.allow(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return nil, err
		}
		out := c.attempt(ctx, path, payload)
		switch {
		case out.err == nil:
			c.br.success()
			return out.res, nil
		case !out.retryable:
			// The server answered deliberately: it is healthy even
			// though this request is not.
			c.br.success()
			return nil, out.err
		default:
			if out.breakerFail {
				c.br.failure()
			} else {
				c.br.success() // 429: alive, just shedding load
			}
			lastErr = out.err
		}
		if attempt == c.cfg.MaxAttempts-1 {
			break
		}
		delay := c.backoff(attempt)
		if out.retryAfter > delay {
			delay = out.retryAfter
		}
		// Deadline propagation: if the caller's budget cannot cover the
		// sleep, fail now with the real cause instead of oversleeping.
		if dl, ok := ctx.Deadline(); ok && c.clk.Now().Add(delay).After(dl) {
			return nil, fmt.Errorf("deadline would expire before next retry: %w", lastErr)
		}
		if err := c.clk.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// backoff returns the full-jitter backoff for a retry following attempt
// (0-based): uniform in [0, min(MaxBackoff, BaseBackoff·2^attempt)].
func (c *Client) backoff(attempt int) time.Duration {
	ceiling := float64(c.cfg.BaseBackoff) * math.Pow(2, float64(attempt))
	if m := float64(c.cfg.MaxBackoff); ceiling > m {
		ceiling = m
	}
	return time.Duration(c.cfg.Rand() * ceiling)
}

// attemptOutcome classifies one wire attempt for the retry loop and the
// circuit breaker.
type attemptOutcome struct {
	res         *Result
	err         error
	retryable   bool          // worth trying again
	breakerFail bool          // counts toward opening the circuit
	retryAfter  time.Duration // server-requested minimum delay (429/503)
}

func (c *Client) attempt(ctx context.Context, path string, payload []byte) attemptOutcome {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.cfg.BaseURL, "/")+path, bytes.NewReader(payload))
	if err != nil {
		return attemptOutcome{err: fmt.Errorf("client: build request: %w", err)}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return attemptOutcome{err: ctx.Err()}
		}
		// Connection refused, reset, EOF: the restarting-server case.
		return attemptOutcome{err: err, retryable: true, breakerFail: true}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return attemptOutcome{err: ctx.Err()}
		}
		return attemptOutcome{err: fmt.Errorf("reading response: %w", err), retryable: true, breakerFail: true}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return attemptOutcome{res: &Result{
			Body:        body,
			ContentType: resp.Header.Get("Content-Type"),
			Degraded:    resp.Header.Get(api.DegradedHeader) == "true",
		}}
	case resp.StatusCode == http.StatusTooManyRequests:
		ra := parseRetryAfter(resp.Header.Get("Retry-After"), c.clk.Now())
		return attemptOutcome{
			err: &TransientError{Status: resp.StatusCode, RetryAfter: ra,
				Message: strings.TrimSpace(string(body))},
			retryable:  true,
			retryAfter: ra,
		}
	case resp.StatusCode >= 500:
		ra := parseRetryAfter(resp.Header.Get("Retry-After"), c.clk.Now())
		return attemptOutcome{
			err: &TransientError{Status: resp.StatusCode, RetryAfter: ra,
				Message: strings.TrimSpace(string(body))},
			retryable:   true,
			breakerFail: true,
			retryAfter:  ra,
		}
	default:
		return attemptOutcome{err: &APIError{Status: resp.StatusCode, Message: string(body)}}
	}
}

// parseRetryAfter decodes a Retry-After header: delta-seconds or an
// HTTP date. Unparseable or absent values mean no server-imposed delay.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}
