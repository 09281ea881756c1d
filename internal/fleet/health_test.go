package fleet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
)

// clock is an adjustable health clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestTracker is the endpoint health NewHealth builds, on a test clock.
func newTestTracker() (*resilience.Breaker, *clock) {
	clk := &clock{t: time.Unix(1000, 0)}
	cfg := healthConfig
	cfg.Now = clk.now
	return resilience.NewBreaker(cfg), clk
}

// usable is the routing test every caller applies.
func usable(h *resilience.Breaker, ep string) bool { return h.Allow(ep) == nil }

func TestTrackerLifecycle(t *testing.T) {
	h, clk := newTestTracker()

	if h.State("a") != resilience.Closed || !usable(h, "a") {
		t.Fatal("unknown endpoint not usable")
	}

	// Failures short of three in a row are noise: a success in between
	// restarts the count.
	h.Record("a", false)
	h.Record("a", false)
	h.Record("a", true)
	h.Record("a", false)
	h.Record("a", false)
	if h.State("a") != resilience.Closed || !usable(h, "a") {
		t.Fatalf("after a broken failure streak: %v", h.State("a"))
	}

	// The third consecutive failure opens the circuit.
	h.Record("a", false)
	if h.State("a") != resilience.Open || usable(h, "a") {
		t.Fatalf("after 3 consecutive failures: %v", h.State("a"))
	}

	// Before the cooldown nobody gets through.
	clk.advance(time.Second)
	if usable(h, "a") {
		t.Fatal("open endpoint usable before the cooldown")
	}

	// After the cooldown exactly one caller claims the probe.
	clk.advance(time.Second)
	if !usable(h, "a") {
		t.Fatal("probe not admitted after the cooldown")
	}
	if h.State("a") != resilience.HalfOpen {
		t.Fatalf("state %v, want half-open", h.State("a"))
	}
	if usable(h, "a") {
		t.Fatal("second caller admitted while the probe is in flight")
	}

	// Probe failure: open again for another full cooldown.
	h.Record("a", false)
	if h.State("a") != resilience.Open || usable(h, "a") {
		t.Fatalf("failed probe: %v", h.State("a"))
	}

	// Probe success after the next cooldown: closed again.
	clk.advance(2 * time.Second)
	if !usable(h, "a") {
		t.Fatal("second probe not admitted")
	}
	h.Record("a", true)
	if h.State("a") != resilience.Closed || !usable(h, "a") {
		t.Fatalf("recovery: %v", h.State("a"))
	}
}

func TestTrackerAbandonedProbeExpires(t *testing.T) {
	h, clk := newTestTracker()
	for i := 0; i < 3; i++ {
		h.Record("a", false)
	}
	clk.advance(2 * time.Second)
	if !usable(h, "a") {
		t.Fatal("probe not admitted")
	}
	// The probe's outcome never arrives (the caller died).
	clk.advance(2 * time.Second)
	if !usable(h, "a") {
		t.Fatal("abandoned probe never expired")
	}
}

func TestTrackerDownRecoversOnStragglerSuccess(t *testing.T) {
	h, _ := newTestTracker()
	for i := 0; i < 3; i++ {
		h.Record("a", false)
	}
	// A request that was in flight when the endpoint went down comes back
	// fine: that is direct evidence of life.
	h.Record("a", true)
	if h.State("a") != resilience.Closed {
		t.Fatalf("straggler success ignored: %v", h.State("a"))
	}
}

func TestTrackerIndependentEndpoints(t *testing.T) {
	h, _ := newTestTracker()
	for i := 0; i < 3; i++ {
		h.Record("a", false)
	}
	if usable(h, "a") || !usable(h, "b") {
		t.Fatal("endpoint states not independent")
	}
	if h.State("a") != resilience.Open || h.State("b") != resilience.Closed {
		t.Fatalf("a=%v b=%v", h.State("a"), h.State("b"))
	}
}

// Nil endpoint health has no opinions: every endpoint is routable, every
// endpoint reads Closed, and recording is a no-op.
func TestTrackerNilSafe(t *testing.T) {
	var h *resilience.Breaker
	for i := 0; i < 3; i++ {
		h.Record("a", false)
	}
	if !usable(h, "a") || h.State("a") != resilience.Closed {
		t.Fatal("nil health has opinions")
	}
}
