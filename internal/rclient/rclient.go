// Package rclient is the HTTP client for the recordd compile service.
//
// One Client speaks to one recordd node.  It speaks the /v1/retarget and
// /v1/compile wire protocol and layers the client half of the resilience
// model (internal/resilience) on top: transient failures — 429 overload
// sheds, 503 drain refusals, 5xx faults — are retried with capped
// exponential backoff and full jitter, honoring any Retry-After the
// server sent.  Compiles are pure functions of (model, source, options),
// so retrying is always safe.
package rclient

import (
	"bytes"
	"context"
	"encoding/json"
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
	Kind   string        // machine-readable refusal class: "overload" | "draining"
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

// Client talks to one recordd node.  The zero value is not usable;
// construct with NewClient.  Fields may be tuned before first use.
type Client struct {
	HTTP   *http.Client      // transport; NewClient sets a 5-minute timeout
	Policy resilience.Policy // retries of each request

	// Breaker is ignored: nothing reads it.  It is kept, nil-able, only
	// so that callers written against the client's former per-endpoint
	// circuit, which clear it, still build.
	Breaker any

	base string // base URL without a trailing slash
}

// NewClient returns a client for one recordd base URL with the default
// retry posture: four attempts with 250ms base / 5s cap full-jitter
// backoff.
func NewClient(base string) *Client {
	return &Client{
		HTTP: &http.Client{Timeout: 5 * time.Minute},
		Policy: resilience.Policy{
			MaxAttempts: 4,
			Base:        250 * time.Millisecond,
			Cap:         5 * time.Second,
		},
		base: strings.TrimRight(base, "/"),
	}
}

// Retarget asks the service to retarget to the model, returning the
// artifact key for subsequent by-key compiles.
func (c *Client) Retarget(ctx context.Context, ref ModelRef) (*RetargetResult, error) {
	var out RetargetResult
	timing, err := c.call(ctx, "/v1/retarget", ref.retargetBody(), &out)
	if err != nil {
		return nil, err
	}
	out.ServerTiming = timing
	return &out, nil
}

// Compile compiles one RecC program against the model.
func (c *Client) Compile(ctx context.Context, ref ModelRef, source string, opts CompileOptions) (*CompileResult, error) {
	var out CompileResult
	timing, err := c.call(ctx, "/v1/compile", ref.compileBody(source, opts), &out)
	if err != nil {
		return nil, err
	}
	out.ServerTiming = timing
	return &out, nil
}

// call runs one request under the retry policy, decoding the answer into
// out and returning the Server-Timing header of the answer.
func (c *Client) call(ctx context.Context, path string, in, out interface{}) (string, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return "", err
	}
	var timing string
	err = c.Policy.Do(ctx, func(ctx context.Context) error {
		raw, t, err := c.send(ctx, path, body)
		if err != nil {
			return err
		}
		timing = t
		return json.Unmarshal(raw, out)
	})
	return timing, err
}

// send runs one POST and returns the raw 200-response body
// plus its Server-Timing header.  When the context carries an obs scope
// (ContextWithScope), the request becomes a child span
// ("rclient.request", tagged endpoint + path + outcome).
func (c *Client) send(ctx context.Context, path string, body []byte) ([]byte, string, error) {
	sp, _ := obs.ScopeFromContext(ctx).Start("rclient.request", obs.KV("endpoint", c.base), obs.KV("path", path))
	defer sp.End()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		sp.SetAttr("outcome", "bad-request")
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
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
