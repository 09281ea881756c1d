package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestNilSafety: the zero Policy retries a transient failure with its
// default backoff, and a nil *Coalescer runs every call itself.
func TestNilSafety(t *testing.T) {
	calls := 0
	err := Policy{}.Do(context.Background(), func(context.Context) error {
		if calls++; calls == 1 {
			return &transientErr{}
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("zero policy: err=%v calls=%d, want success on the second call", err, calls)
	}

	var c *Coalescer
	for i := 0; i < 2; i++ {
		v, shared, err := c.Do(context.Background(), "k", func() (interface{}, error) { return i, nil })
		if v != i || shared || err != nil {
			t.Fatalf("nil coalescer call %d: %v %v %v, want its own result", i, v, shared, err)
		}
	}
}

type transientErr struct{ after time.Duration }

func (e *transientErr) Error() string                 { return "transient" }
func (e *transientErr) Transient() bool               { return true }
func (e *transientErr) RetryAfterHint() time.Duration { return e.after }

func TestRetrySucceedsAfterTransients(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: 5,
		Base:        100 * time.Millisecond,
		Cap:         time.Second,
		Rand:        func(max time.Duration) time.Duration { return max }, // deterministic: worst case
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return &transientErr{}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// Exponential: 100ms then 200ms (full-jitter upper bounds).
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("slept %v, want %v", slept, want)
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: 2,
		Base:        time.Millisecond,
		Cap:         10 * time.Second,
		Rand:        func(max time.Duration) time.Duration { return 0 },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	_ = p.Do(context.Background(), func(context.Context) error {
		calls++
		return &transientErr{after: 700 * time.Millisecond}
	})
	if calls != 2 {
		t.Fatalf("calls %d, want 2", calls)
	}
	if len(slept) != 1 || slept[0] != 700*time.Millisecond {
		t.Fatalf("slept %v, want the 700ms server hint", slept)
	}
}

func TestRetryStopsOnTerminalError(t *testing.T) {
	p := Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	terminal := errors.New("bad request")
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want terminal after 1 call", err, calls)
	}
}

func TestRetryDeadlineAware(t *testing.T) {
	// Deadline of 50ms cannot fit a 10s Retry-After sleep: Do must return
	// promptly with the last error rather than sleeping into the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p := Policy{MaxAttempts: 3, Base: 10 * time.Second, Cap: 10 * time.Second,
		Rand: func(max time.Duration) time.Duration { return max }}
	calls := 0
	start := time.Now()
	err := p.Do(ctx, func(context.Context) error {
		calls++
		return &transientErr{}
	})
	if calls != 1 {
		t.Fatalf("calls %d, want 1", calls)
	}
	var te *transientErr
	if !errors.As(err, &te) {
		t.Fatalf("final error lost: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("slept into the deadline (%v elapsed)", time.Since(start))
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return &transientErr{}
	})
	if calls != 3 {
		t.Fatalf("calls %d, want 3", calls)
	}
	var te *transientErr
	if !errors.As(err, &te) {
		t.Fatalf("final error lost: %v", err)
	}
}

// TestRetryDrainingHintAuthoritative: a draining node's Retry-After must
// be honored exactly, even when the computed backoff is longer.  If the
// hint could only raise the wait, a client whose backoff had grown past
// the hint would sleep on after the node said it was safe to retry.
func TestRetryDrainingHintAuthoritative(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: 2,
		Base:        10 * time.Second, // computed backoff far above the hint
		Cap:         10 * time.Second,
		Rand:        func(max time.Duration) time.Duration { return max },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	_ = p.Do(context.Background(), func(context.Context) error {
		return &DrainingError{After: 50 * time.Millisecond}
	})
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Fatalf("slept %v, want exactly the 50ms drain hint", slept)
	}

	// Overload keeps the old contract: the hint only raises the wait.
	slept = nil
	_ = p.Do(context.Background(), func(context.Context) error {
		return &OverloadError{Queue: 1, Limit: 1, After: 50 * time.Millisecond}
	})
	if len(slept) != 1 || slept[0] != 10*time.Second {
		t.Fatalf("overload slept %v, want the full 10s backoff", slept)
	}

	if !IsDraining(fmt.Errorf("wrapped: %w", &DrainingError{})) {
		t.Fatal("IsDraining does not unwrap")
	}
	if IsDraining(&OverloadError{}) {
		t.Fatal("IsDraining misfires on overload")
	}
}

func TestDrainingError(t *testing.T) {
	err := error(&DrainingError{After: 2 * time.Second})
	if !IsTransient(err) {
		t.Fatal("draining not transient")
	}
	if after, ok := RetryAfterOf(err); !ok || after != 2*time.Second {
		t.Fatalf("retry-after %v %v", after, ok)
	}
}
