// Package resilience is the service-hardening layer of the compile
// service: typed refusals, retry policy, drain signalling and
// duplicate-call coalescing, shared by recordd (server side), rcache (its
// fill coalescer) and rclient (client side).
//
// The retargeting pipeline already degrades gracefully inside one request
// (internal/diag budgets, faultpoint-exercised recovery boundaries); this
// package makes the *service* around it degrade gracefully across
// requests: overload sheds with an explicit status instead of queueing
// unboundedly, transient failures are retried with capped exponential
// backoff and full jitter, and shutdown drains rather than drops.
//
// Everything here is stdlib-only and nil-safe in the style of
// diag.Reporter and the obs instruments: a nil *Coalescer runs every call
// itself, and the zero Policy performs a sane default retry.  Typed
// errors (OverloadError, DrainingError) carry machine-readable retry
// hints so HTTP layers can map them to 429/503 plus a Retry-After header,
// and the client can honor that header symmetrically.
package resilience

import (
	"errors"
	"fmt"
	"time"
)

// OverloadError reports a request shed by admission control: the worker
// backlog already held Queue waiters against a bound of Limit.  It maps to
// HTTP 429 with a Retry-After hint.
type OverloadError struct {
	Queue, Limit int
	After        time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded: %d requests queued (limit %d), retry in %v",
		e.Queue, e.Limit, e.After)
}

// Transient marks the condition as retryable.
func (e *OverloadError) Transient() bool { return true }

// RetryAfterHint returns how long the caller should back off.
func (e *OverloadError) RetryAfterHint() time.Duration { return e.After }

// DrainingError reports a request refused because the service is shutting
// down.  It maps to HTTP 503; the client should retry against the
// restarted instance after the hint.
type DrainingError struct {
	After time.Duration
}

func (e *DrainingError) Error() string {
	return fmt.Sprintf("service draining: retry in %v", e.After)
}

// Transient marks the condition as retryable.
func (e *DrainingError) Transient() bool { return true }

// RetryAfterHint returns how long the caller should back off.
func (e *DrainingError) RetryAfterHint() time.Duration { return e.After }

// IsDraining reports whether err (or anything it wraps) is a
// DrainingError.  Draining is a different kind of transient than
// overload: the node is going away, so its Retry-After hint is
// authoritative in both directions — retrying sooner lands in the drain,
// and waiting longer than the hint just idles when the restarted node
// could already serve.  Policy branches on this.
func IsDraining(err error) bool {
	var de *DrainingError
	return errors.As(err, &de)
}

// IsTransient reports whether err (or anything it wraps) marks itself as
// worth retrying via a `Transient() bool` method.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryAfterOf extracts a Retry-After hint from err, if any error in its
// chain carries one.
func RetryAfterOf(err error) (time.Duration, bool) {
	var h interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &h) {
		return h.RetryAfterHint(), true
	}
	return 0, false
}
