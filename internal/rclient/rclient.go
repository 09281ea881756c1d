// Package rclient is the HTTP client for the recordd compile service.
//
// It speaks the /v1/retarget and /v1/compile wire protocol and layers the
// client half of the resilience model (internal/resilience) on top:
// transient failures — 429 overload sheds, 503 drain/breaker refusals,
// 5xx faults and transport errors — are retried with capped exponential
// backoff and full jitter, honoring any Retry-After the server sent, and
// a local per-model circuit breaker stops hammering a model the service
// keeps failing on.  Compiles are pure functions of (model, source,
// options), so retrying is always safe.
package rclient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// ModelRef selects the processor model a request targets: an artifact key
// from a previous retarget, inline MDL source, or a bundled model name.
// Exactly one field should be set; the server validates.
type ModelRef struct {
	Key       string // artifact key from Retarget
	Model     string // inline MDL source
	ModelName string // bundled model name
}

// fingerprint is the client-side circuit-breaker key: stable per model,
// cheap to compute, and independent of the program being compiled.
func (m ModelRef) fingerprint() string {
	switch {
	case m.Key != "":
		return m.Key
	case m.ModelName != "":
		return "name:" + m.ModelName
	}
	sum := sha256.Sum256([]byte(m.Model))
	return "mdl:" + hex.EncodeToString(sum[:8])
}

// request is the JSON body of /v1/retarget and /v1/compile.
type request struct {
	Key       string          `json:"key,omitempty"`
	Model     string          `json:"model,omitempty"`
	ModelName string          `json:"model_name,omitempty"`
	Source    string          `json:"source,omitempty"`
	Options   *CompileOptions `json:"options,omitempty"`
}

// retargetBody is the /v1/retarget request selecting m's model.
func (m ModelRef) retargetBody() request { return request{Model: m.Model, ModelName: m.ModelName} }

// compileBody is the /v1/compile request compiling source against m's
// model, selected by artifact key, inline MDL or bundled name.
func (m ModelRef) compileBody(source string, opts CompileOptions) request {
	return request{Key: m.Key, Model: m.Model, ModelName: m.ModelName, Source: source, Options: &opts}
}

// CompileOptions mirrors the service's per-program options.
type CompileOptions struct {
	NoCompaction bool `json:"no_compaction,omitempty"`
	NoPeephole   bool `json:"no_peephole,omitempty"`
}

// RetargetResult is the /v1/retarget response.
type RetargetResult struct {
	Key       string `json:"key"`
	Name      string `json:"name"`
	Templates int    `json:"templates"`
	Rules     int    `json:"rules"`
	Cache     string `json:"cache"`
	Warnings  int    `json:"warnings"`

	// Trace is the distributed trace ID echoed by the server in the
	// X-Record-Trace response header ("" when the request carried no
	// trace); it names the server-side spans this request produced.
	Trace string `json:"-"`
}

// CompileResult is the /v1/compile response.
type CompileResult struct {
	Key     string   `json:"key"`
	Name    string   `json:"name"`
	Cache   string   `json:"cache"`
	SeqLen  int      `json:"seq_len"`
	CodeLen int      `json:"code_len"`
	Words   []uint64 `json:"words"`
	Listing string   `json:"listing"`

	// Trace is the distributed trace ID echoed by the server (see
	// RetargetResult.Trace).
	Trace string `json:"-"`
}

// StatusError is a non-2xx service response.  Its transience follows the
// resilience model: overload (429), unavailability (503) and server-side
// faults (500/502/504) are retryable; everything else is the caller's
// request and retrying cannot help.
type StatusError struct {
	Status int           // HTTP status
	Msg    string        // server's error message
	Kind   string        // machine-readable refusal class: "overload" | "open" | "draining"
	After  time.Duration // parsed Retry-After, 0 when absent

	// wrapped is the typed resilience error reconstructed from Kind, so
	// errors.As / resilience.IsDraining see through the HTTP hop: a 503
	// from a draining node unwraps to a *resilience.DrainingError exactly
	// as if the refusal had happened in-process.
	wrapped error
}

// Unwrap exposes the reconstructed resilience error, if any.
func (e *StatusError) Unwrap() error { return e.wrapped }

func (e *StatusError) Error() string {
	return fmt.Sprintf("recordd: %d %s: %s", e.Status, http.StatusText(e.Status), e.Msg)
}

// Transient reports whether retrying the identical request can succeed.
func (e *StatusError) Transient() bool {
	switch e.Status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfterHint surfaces the server's Retry-After to the retry policy.
func (e *StatusError) RetryAfterHint() time.Duration { return e.After }

// Client talks to one recordd instance.  The zero value is not usable;
// construct with New.  Fields may be tuned before first use.
type Client struct {
	Base    string              // service base URL, e.g. http://127.0.0.1:8347
	HTTP    *http.Client        // transport; New sets a sane timeout
	Policy  resilience.Policy   // retry policy for transient failures
	Breaker *resilience.Breaker // local per-model circuit; nil = always allow

	// Priority is the declared QoS class sent as X-Record-Priority
	// ("interactive" or "batch"); empty keeps the server's per-route
	// default.  The server treats unknown values as the default, so this
	// is a hint, never a way to fail a request.
	Priority string
}

// Options tunes a Service built by New.
type Options struct {
	// Priority is the declared QoS class ("interactive" or "batch") sent
	// with every request; empty keeps the server's per-route defaults.
	Priority string
}

// New builds a Service over one or more recordd base URLs.  It is the one
// constructor callers need: a single endpoint gets the plain client, two
// or more get the fleet client (content-address sharding, failover,
// hedging) — the caller compiles through the same Service either way.
func New(endpoints []string, opts Options) (Service, error) {
	var eps []string
	for _, e := range endpoints {
		if e = strings.TrimSpace(e); e != "" {
			eps = append(eps, e)
		}
	}
	switch len(eps) {
	case 0:
		return nil, errors.New("rclient: no endpoints")
	case 1:
		c := NewClient(eps[0])
		c.Priority = opts.Priority
		return c, nil
	}
	f, err := NewFleet(eps)
	if err != nil {
		return nil, err
	}
	f.SetPriority(opts.Priority)
	return f, nil
}

// NewClient returns a single-endpoint client with the default resilience
// posture: four attempts with 250ms base / 5s cap full-jitter backoff, and
// a local breaker so a model the service keeps failing on stops consuming
// round trips.
func NewClient(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: 5 * time.Minute},
		Policy: resilience.Policy{
			MaxAttempts: 4,
			Base:        250 * time.Millisecond,
			Cap:         5 * time.Second,
		},
		Breaker: resilience.NewBreaker(resilience.BreakerConfig{}),
	}
}

// Healthz reports service liveness; a draining or down service errors.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// Retarget asks the service to retarget to the model, returning the
// artifact key for subsequent by-key compiles.
func (c *Client) Retarget(ctx context.Context, ref ModelRef) (*RetargetResult, error) {
	var out RetargetResult
	trace, err := c.call(ctx, ref.fingerprint(), "/v1/retarget", ref.retargetBody(), &out)
	if err != nil {
		return nil, err
	}
	out.Trace = trace
	return &out, nil
}

// Compile compiles one RecC program against the model.
func (c *Client) Compile(ctx context.Context, ref ModelRef, source string, opts CompileOptions) (*CompileResult, error) {
	var out CompileResult
	trace, err := c.call(ctx, ref.fingerprint(), "/v1/compile", ref.compileBody(source, opts), &out)
	if err != nil {
		return nil, err
	}
	out.Trace = trace
	return &out, nil
}

// call runs one POST under the retry policy and the model's circuit,
// returning the trace ID the winning response echoed.  Breaker
// bookkeeping counts only service-fault outcomes: a 4xx is the caller's
// problem and leaves the circuit alone.
func (c *Client) call(ctx context.Context, bkey, path string, in, out interface{}) (string, error) {
	var trace string
	err := c.Policy.Do(ctx, func(ctx context.Context) error {
		if err := c.Breaker.Allow(bkey); err != nil {
			return err
		}
		echo, err := c.post(ctx, path, in, out)
		switch {
		case err == nil:
			trace = echoTrace(echo)
			c.Breaker.Record(bkey, true)
		case serverFault(err):
			c.Breaker.Record(bkey, false)
		}
		return err
	})
	return trace, err
}

// echoTrace extracts the trace ID from an echoed X-Record-Trace value.
func echoTrace(echo string) string {
	if sc, ok := obs.ParseTraceHeader(echo); ok {
		return sc.Trace.String()
	}
	return ""
}

// serverFault reports whether err indicates the service (not the request)
// failed: transport errors and 5xx statuses.
func serverFault(err error) bool {
	if se, ok := err.(*StatusError); ok {
		return se.Status >= http.StatusInternalServerError
	}
	return true // transport-level failure
}

func (c *Client) post(ctx context.Context, path string, in, out interface{}) (string, error) {
	raw, echo, err := c.postRaw(ctx, path, in)
	if err != nil {
		return "", err
	}
	return echo, json.Unmarshal(raw, out)
}

// postRaw runs one POST and returns the raw 200-response body plus the
// X-Record-Trace value the server echoed.  The fleet client builds on
// this rather than post so hedged request legs can each hold their own
// undecoded body and only the winner is unmarshalled.
//
// When the context carries an obs scope (ContextWithScope), the request
// becomes a child span ("rclient.request", tagged endpoint + path +
// outcome, plus any extra attrs) and the span's identity travels in the
// X-Record-Trace request header, parenting everything the server does —
// queue wait, cache lookup, compile phases — under this leg.
func (c *Client) postRaw(ctx context.Context, path string, in interface{}, extra ...obs.Attr) ([]byte, string, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, "", err
	}
	attrs := append([]obs.Attr{obs.KV("endpoint", c.Base), obs.KV("path", path)}, extra...)
	sp, _ := obs.ScopeFromContext(ctx).Start("rclient.request", attrs...)
	defer sp.End()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		sp.SetAttr("outcome", "bad-request")
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Priority != "" {
		req.Header.Set("X-Record-Priority", c.Priority)
	}
	if sc := sp.Context(); sc.Valid() {
		req.Header.Set(obs.TraceHeader, sc.Header())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			sp.SetAttr("outcome", "cancelled")
		} else {
			sp.SetAttr("outcome", "transport-error")
		}
		return nil, "", err
	}
	defer resp.Body.Close()
	echo := resp.Header.Get(obs.TraceHeader)
	if resp.StatusCode != http.StatusOK {
		sp.SetAttr("outcome", fmt.Sprintf("status-%d", resp.StatusCode))
		return nil, echo, statusError(resp)
	}
	sp.SetAttr("outcome", "ok")
	raw, err := io.ReadAll(resp.Body)
	return raw, echo, err
}

// statusError drains a non-2xx response into a StatusError, parsing the
// JSON error body (message + refusal kind) and the Retry-After header
// when present.
func statusError(resp *http.Response) *StatusError {
	se := &StatusError{Status: resp.StatusCode}
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil {
		var e struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			se.Msg = e.Error
			se.Kind = e.Kind
		} else {
			se.Msg = strings.TrimSpace(string(b))
		}
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			se.After = time.Duration(secs) * time.Second
		} else if t, err := http.ParseTime(v); err == nil {
			if d := time.Until(t); d > 0 {
				se.After = d
			}
		}
	}
	if se.Kind == "draining" {
		se.wrapped = &resilience.DrainingError{After: se.After}
	}
	return se
}
