// Package rclient is the HTTP client for the recordd compile service.
//
// One Client speaks to one recordd node or a fleet of independent ones.
// It speaks the /v1/retarget and /v1/compile wire protocol and layers the
// client half of the resilience model (internal/resilience) on top.
// With several endpoints, requests shard over a consistent-hash ring
// keyed on the model's artifact content address and fail over along the
// ring when a node is down or refusing (internal/fleet).  A per-endpoint
// circuit skips a node that keeps failing.  Transient failures — 429
// overload sheds, 503 drain/breaker refusals, 5xx faults — are retried
// with capped exponential backoff and full jitter, honoring any
// Retry-After the server sent.  Compiles are pure functions of (model,
// source, options), so retrying and failing over are always safe.
package rclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
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

	// ServerTiming is the raw Server-Timing header of the response: the
	// serving node's own breakdown of this request, by phase.
	ServerTiming string `json:"-"`
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

	// ServerTiming is the raw Server-Timing header of the response (see
	// RetargetResult.ServerTiming).
	ServerTiming string `json:"-"`
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

// Client talks to one recordd node or a fleet of them.  With several
// endpoints, requests shard over a consistent-hash ring (internal/fleet)
// keyed on the model's artifact content address, so every request for a
// model lands first on the node whose cache holds it.  Each request walks
// its key's ring successors in order, owner first, and fails over to the
// next node when one is down, draining, or refuses the model with its own
// open circuit.  The zero value is not usable; construct with New or
// NewClient.  Fields may be tuned before first use.
type Client struct {
	HTTP    *http.Client        // transport; the constructors set a 5-minute timeout
	Policy  resilience.Policy   // retries of a whole walk over the endpoints
	Breaker *resilience.Breaker // per-endpoint circuit (fleet.NewHealth); nil = always allow

	// Priority is the declared QoS class sent as X-Record-Priority
	// ("interactive" or "batch"); empty keeps the server's per-route
	// default.  The server treats unknown values as the default, so this
	// is a hint, never a way to fail a request.
	Priority string

	endpoints []string    // normalized base URLs, in the order given
	ring      *fleet.Ring // nil with one endpoint: nothing to route
}

// New builds a client over one or more recordd base URLs.  Blank entries
// and duplicates are dropped; an empty list is an error.
func New(endpoints []string) (*Client, error) {
	seen := make(map[string]bool, len(endpoints))
	var eps []string
	for _, e := range endpoints {
		e = strings.TrimRight(strings.TrimSpace(e), "/")
		if e != "" && !seen[e] {
			seen[e] = true
			eps = append(eps, e)
		}
	}
	if len(eps) == 0 {
		return nil, errors.New("rclient: no endpoints")
	}
	return newClient(eps), nil
}

// NewClient returns a client for one recordd base URL.
func NewClient(base string) *Client {
	return newClient([]string{strings.TrimRight(base, "/")})
}

// newClient applies the default resilience posture: four attempts with
// 250ms base / 5s cap full-jitter backoff, and the fleet's per-endpoint
// circuit.
func newClient(eps []string) *Client {
	c := &Client{
		HTTP: &http.Client{Timeout: 5 * time.Minute},
		Policy: resilience.Policy{
			MaxAttempts: 4,
			Base:        250 * time.Millisecond,
			Cap:         5 * time.Second,
		},
		Breaker:   fleet.NewHealth(),
		endpoints: eps,
	}
	if len(eps) > 1 {
		c.ring = fleet.NewRing(fleet.DefaultVirtualNodes, eps...)
	}
	return c
}

// routeKey is the ring shard key for a request: the artifact content
// address when it can be computed client-side, so requests for a model
// land on the node whose cache owns that model's artifact.  Key refs are
// already the content address; inline source and bundled names hash to
// the same SHA-256 the server caches under with default options.  A
// server running non-default options caches under another key, but every
// request for the model still lands on the same node, which retargets it
// once.  A name the client does not know routes by the name itself:
// stable routing, arbitrary owner.
func (m ModelRef) routeKey() string {
	switch {
	case m.Key != "":
		return m.Key
	case m.Model != "":
		return artifact.Key(m.Model, core.RetargetOptions{})
	}
	if src, ok := models.Get(m.ModelName); ok {
		return artifact.Key(src, core.RetargetOptions{})
	}
	return m.ModelName
}

// Healthz reports liveness: nil if any endpoint answers healthy.  Every
// endpoint is checked and each outcome lands in its circuit, so a dead
// node is skipped, and a revived one rejoins, without waiting for
// request traffic to find out.
func (c *Client) Healthz(ctx context.Context) error {
	var err error
	healthy := false
	for _, ep := range c.endpoints {
		e := c.healthz(ctx, ep)
		c.Breaker.Record(ep, e == nil)
		if e == nil {
			healthy = true
		} else {
			err = e
		}
	}
	if healthy {
		return nil
	}
	return err
}

func (c *Client) healthz(ctx context.Context, ep string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/healthz", nil)
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
// artifact key for subsequent by-key compiles.  The request goes to the
// ring owner of the model's content address, so the artifact is built and
// cached where by-key compiles look for it.
func (c *Client) Retarget(ctx context.Context, ref ModelRef) (*RetargetResult, error) {
	var out RetargetResult
	timing, err := c.call(ctx, ref, "/v1/retarget", ref.retargetBody(), &out)
	if err != nil {
		return nil, err
	}
	out.ServerTiming = timing
	return &out, nil
}

// Compile compiles one RecC program against the model.
func (c *Client) Compile(ctx context.Context, ref ModelRef, source string, opts CompileOptions) (*CompileResult, error) {
	var out CompileResult
	timing, err := c.call(ctx, ref, "/v1/compile", ref.compileBody(source, opts), &out)
	if err != nil {
		return nil, err
	}
	out.ServerTiming = timing
	return &out, nil
}

// call runs one request under the retry policy, one walk over ref's
// endpoints per attempt, decoding the answer into out and returning the
// Server-Timing header of the answer.  Only a client with several
// endpoints computes a route key.
func (c *Client) call(ctx context.Context, ref ModelRef, path string, in, out interface{}) (string, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return "", err
	}
	order := c.endpoints
	if c.ring != nil {
		order = c.ring.Successors(ref.routeKey(), len(c.endpoints))
	}
	var timing string
	err = c.Policy.Do(ctx, func(ctx context.Context) error {
		raw, t, err := c.walk(ctx, order, path, body)
		if err != nil {
			return err
		}
		timing = t
		return json.Unmarshal(raw, out)
	})
	return timing, err
}

// walk tries the endpoints in order until one answers.  Each endpoint's
// circuit is asked just before that endpoint is contacted, never ahead of
// time: a request its owner serves must not claim the half-open probe of
// a replica it never reaches.  A node failure moves on to the next
// endpoint; an error that would recur on any node (a rejected request, a
// cancelled context) ends the walk.  When every circuit refuses, each
// endpoint is tried once anyway, in order: last-resort traffic is how a
// recovered fleet is rediscovered, and strictly better than refusing.
func (c *Client) walk(ctx context.Context, order []string, path string, body []byte) ([]byte, string, error) {
	var err error
	for _, lastResort := range []bool{false, true} {
		contacted := false
		for _, ep := range order {
			if !lastResort && c.Breaker.Allow(ep) != nil {
				continue
			}
			contacted = true
			var raw []byte
			var timing string
			if raw, timing, err = c.post(ctx, ep, path, body); err == nil || !failoverWorthy(err) {
				return raw, timing, err
			}
		}
		if contacted {
			break
		}
	}
	return nil, "", err
}

// post runs one request against one endpoint and lands the outcome in
// that endpoint's circuit: a transport error or 5xx counts against the
// node, any other answer for it.  A request cancelled by its caller
// records nothing: cancellation is not evidence about the node, and a
// probe it held expires after one cooldown.
func (c *Client) post(ctx context.Context, ep, path string, body []byte) ([]byte, string, error) {
	raw, timing, err := c.send(ctx, ep, path, body)
	if err != nil && ctx.Err() != nil {
		return nil, "", err
	}
	c.Breaker.Record(ep, err == nil || !serverFault(err))
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", ep, err)
	}
	return raw, timing, nil
}

// failoverWorthy reports whether another endpoint could answer where this
// one failed: transient statuses (including a node's open circuit for
// the model) and transport failures qualify; a rejected request (bad
// model, bad program) fails the same way everywhere.
func failoverWorthy(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Transient()
	}
	return true // transport-level failure: connection refused, reset, ...
}

// serverFault reports whether err indicates the service (not the request)
// failed: transport errors and 5xx statuses.
func serverFault(err error) bool {
	if se, ok := err.(*StatusError); ok {
		return se.Status >= http.StatusInternalServerError
	}
	return true // transport-level failure
}

// send runs one POST against ep and returns the raw 200-response body
// plus its Server-Timing header.  When the context carries an obs scope
// (ContextWithScope), the request becomes a child span
// ("rclient.request", tagged endpoint + path + outcome).
func (c *Client) send(ctx context.Context, ep, path string, body []byte) ([]byte, string, error) {
	sp, _ := obs.ScopeFromContext(ctx).Start("rclient.request", obs.KV("endpoint", ep), obs.KV("path", path))
	defer sp.End()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep+path, bytes.NewReader(body))
	if err != nil {
		sp.SetAttr("outcome", "bad-request")
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Priority != "" {
		req.Header.Set("X-Record-Priority", c.Priority)
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
	if resp.StatusCode != http.StatusOK {
		sp.SetAttr("outcome", fmt.Sprintf("status-%d", resp.StatusCode))
		return nil, "", statusError(resp)
	}
	sp.SetAttr("outcome", "ok")
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.Header.Get("Server-Timing"), err
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
