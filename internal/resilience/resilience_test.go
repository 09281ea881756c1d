package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var b *Breaker
	if err := b.Allow("k"); err != nil {
		t.Fatalf("nil breaker refused: %v", err)
	}
	b.Record("k", false)
	if b.State("k") != Closed {
		t.Fatal("nil breaker not closed")
	}
}

// fakeClock is an adjustable breaker clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var trips []string
	b := NewBreaker(BreakerConfig{
		Window:      4,
		MinSamples:  2,
		FailureRate: 0.5,
		Cooldown:    10 * time.Second,
		Now:         clk.now,
		OnTrip:      func(k string) { trips = append(trips, k) },
	})

	// Two failures trip the circuit.
	for i := 0; i < 2; i++ {
		if err := b.Allow("m1"); err != nil {
			t.Fatalf("closed allow %d: %v", i, err)
		}
		b.Record("m1", false)
	}
	if got := b.State("m1"); got != Open {
		t.Fatalf("state %v, want Open", got)
	}
	if len(trips) != 1 || trips[0] != "m1" {
		t.Fatalf("trips %v", trips)
	}

	// Open: fails fast with the remaining cooldown; other keys unaffected.
	err := b.Allow("m1")
	var oe *OpenError
	if !errors.As(err, &oe) || oe.After <= 0 || oe.After > 10*time.Second {
		t.Fatalf("open allow: %v", err)
	}
	if err := b.Allow("other"); err != nil {
		t.Fatalf("independent key refused: %v", err)
	}
	b.Record("other", true)

	// After the cooldown exactly one probe is admitted.
	clk.advance(11 * time.Second)
	if err := b.Allow("m1"); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := b.Allow("m1"); !errors.As(err, &oe) {
		t.Fatalf("second half-open caller admitted: %v", err)
	}

	// Probe failure reopens for another full cooldown.
	b.Record("m1", false)
	if got := b.State("m1"); got != Open {
		t.Fatalf("state after failed probe %v, want Open", got)
	}
	if len(trips) != 2 {
		t.Fatalf("failed probe did not count as a trip: %v", trips)
	}

	// Next probe succeeds: circuit closes with a clean window (one
	// subsequent failure must not re-trip instantly).
	clk.advance(11 * time.Second)
	if err := b.Allow("m1"); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Record("m1", true)
	if got := b.State("m1"); got != Closed {
		t.Fatalf("state after successful probe %v, want Closed", got)
	}
	if err := b.Allow("m1"); err != nil {
		t.Fatalf("closed after recovery: %v", err)
	}
	b.Record("m1", false)
	if got := b.State("m1"); got != Closed {
		t.Fatalf("one failure after recovery re-tripped (window not cleared)")
	}
}

// trip opens k's circuit with n recorded failures.
func trip(t *testing.T, b *Breaker, k string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b.Record(k, false)
	}
	if got := b.State(k); got != Open {
		t.Fatalf("state %v after %d failures, want Open", got, n)
	}
}

// TestBreakerAbandonedProbeExpires: a half-open probe whose outcome is
// never recorded (it ended as a 4xx, its client went away) must not hold
// the circuit open forever; after one cooldown a new probe is admitted.
func TestBreakerAbandonedProbeExpires(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, Cooldown: 100 * time.Millisecond, Now: clk.now})
	trip(t, b, "m", 2)
	clk.advance(100 * time.Millisecond)
	if err := b.Allow("m"); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	// Within the cooldown the in-flight probe still blocks everyone else.
	clk.advance(50 * time.Millisecond)
	var oe *OpenError
	if err := b.Allow("m"); !errors.As(err, &oe) {
		t.Fatalf("second caller admitted during the probe: %v", err)
	}
	clk.advance(50 * time.Millisecond)
	if err := b.Allow("m"); err != nil {
		t.Fatalf("abandoned probe never expired: %v (state %v)", err, b.State("m"))
	}
	b.Record("m", true)
	if got := b.State("m"); got != Closed {
		t.Fatalf("state %v after the new probe succeeded, want Closed", got)
	}
}

// TestBreakerOpenClosesOnSuccess: a success recorded while the circuit
// is open — a straggler admitted before the trip, or a health check —
// is direct evidence of life and closes it with a clean window.  A
// straggler's failure changes nothing.
func TestBreakerOpenClosesOnSuccess(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, Cooldown: time.Second, Now: clk.now})
	trip(t, b, "m", 2)
	b.Record("m", false)
	if got := b.State("m"); got != Open {
		t.Fatalf("straggler failure moved an open circuit to %v", got)
	}
	b.Record("m", true)
	if got := b.State("m"); got != Closed {
		t.Fatalf("state %v after a success while open, want Closed", got)
	}
	b.Record("m", false)
	if got := b.State("m"); got != Closed {
		t.Fatal("window not cleared on close: one failure re-tripped")
	}
}

func TestBreakerWindowRolls(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 4, FailureRate: 0.5, Now: clk.now})
	// Alternate success/failure: rate stays at 0.5 once the window fills,
	// so with MinSamples=4 the fourth outcome trips it.
	outcomes := []bool{true, false, true, false}
	for i, ok := range outcomes {
		if err := b.Allow("k"); err != nil {
			t.Fatalf("allow %d: %v", i, err)
		}
		b.Record("k", ok)
	}
	if got := b.State("k"); got != Open {
		t.Fatalf("state %v, want Open at 50%% failure rate", got)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: 8, Cooldown: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			for j := 0; j < 50; j++ {
				if b.Allow(key) == nil {
					b.Record(key, j%3 != 0)
				}
			}
		}(i)
	}
	wg.Wait()
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

// TestRetryDrainingHintAuthoritative is the failover regression test: a
// draining node's Retry-After must be honored exactly, even when the
// computed backoff is longer.  Before the fix the hint could only raise
// the wait, so a client whose backoff had grown past the hint slept on —
// retrying into the drain instead of failing over when the node said it
// was safe to.
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
