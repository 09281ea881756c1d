package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Policy is a retry policy with capped exponential backoff and full
// jitter: attempt n sleeps a uniformly random duration in
// [0, min(Cap, Base<<n)], the spread that minimizes synchronized retry
// storms from many clients.  A Retry-After hint on the error (server
// shedding, draining) overrides a shorter computed backoff, and the
// policy is deadline-aware: it never sleeps past the context deadline —
// when the budget cannot fit another attempt it returns the last error
// immediately.
//
// The zero Policy is usable: 4 attempts, 100ms base, 5s cap.
type Policy struct {
	// MaxAttempts bounds total tries, first included (default 4).
	MaxAttempts int
	// Base and Cap shape the backoff (defaults 100ms and 5s).
	Base, Cap time.Duration
	// Rand draws the jittered sleep from [0, max); nil uses math/rand.
	// Injectable for deterministic tests.
	Rand func(max time.Duration) time.Duration
	// Sleep waits d or until ctx is done; nil uses a timer.  Injectable
	// so tests run without wall-clock delays.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 5 * time.Second
	}
	if p.Rand == nil {
		p.Rand = func(max time.Duration) time.Duration {
			if max <= 0 {
				return 0
			}
			return time.Duration(rand.Int63n(int64(max)))
		}
	}
	if p.Sleep == nil {
		p.Sleep = sleep
	}
	return p
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the jittered wait before retry number attempt (0-based
// count of failures so far).
func (p Policy) backoff(attempt int) time.Duration {
	max := p.Base
	for i := 0; i < attempt && max < p.Cap; i++ {
		max *= 2
	}
	if max > p.Cap {
		max = p.Cap
	}
	return p.Rand(max)
}

// Do invokes f until it succeeds, fails terminally, or the policy gives
// up.  Only errors satisfying IsTransient are retried; the error of the
// final attempt is returned as-is so callers can errors.As through it.
func (p Policy) Do(ctx context.Context, f func(ctx context.Context) error) error {
	p = p.withDefaults()
	var err error
	for attempt := 0; ; attempt++ {
		if err = f(ctx); err == nil || !IsTransient(err) {
			return err
		}
		if attempt+1 >= p.MaxAttempts {
			return err
		}
		wait := p.backoff(attempt)
		if hint, ok := RetryAfterOf(err); ok {
			// A draining node's hint is authoritative: the exponential
			// backoff would sleep PAST the hint, idling when the next
			// attempt, against the restarted node, could already
			// succeed.  Overload hints only raise the wait — backing
			// off harder than asked is safe there because the same
			// node will answer.
			if IsDraining(err) || hint > wait {
				wait = hint
			}
			if wait > p.Cap {
				wait = p.Cap
			}
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= wait {
			return fmt.Errorf("retry budget exhausted after %d attempts: %w", attempt+1, err)
		}
		if serr := p.Sleep(ctx, wait); serr != nil {
			return fmt.Errorf("retry interrupted: %v: %w", serr, err)
		}
	}
}
