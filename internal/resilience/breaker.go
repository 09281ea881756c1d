package resilience

import (
	"sync"
	"time"
)

// State is one circuit-breaker state.
type State int

// Breaker states.
const (
	Closed   State = iota // normal operation, outcomes recorded
	Open                  // failing fast until the cooldown elapses
	HalfOpen              // cooldown over: one probe decides reopen/close
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "state(?)"
}

// BreakerConfig tunes a Breaker; zero fields take the documented defaults.
type BreakerConfig struct {
	// Window is the per-key ring of recent outcomes the failure rate is
	// computed over (default 8).
	Window int
	// MinSamples is how many outcomes the window must hold before the
	// breaker may trip (default Window/2, at least 2).
	MinSamples int
	// FailureRate opens the circuit when failures/window >= this
	// (default 0.5).
	FailureRate float64
	// Cooldown is how long an open circuit fails fast before allowing a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Now is the clock; nil means time.Now.  Injectable for tests.
	Now func() time.Time
	// OnTrip, when non-nil, is called (outside the breaker lock) each
	// time a key's circuit transitions to Open.
	OnTrip func(key string)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window / 2
		if c.MinSamples < 2 {
			c.MinSamples = 2
		}
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// circuit is the per-key state machine.  All fields are guarded by the
// owning Breaker's mutex.
type circuit struct {
	state  State
	window []bool // ring of outcomes, true = failure
	idx, n int
	fails  int
	since  time.Time // Open: when it opened; HalfOpen: when the probe was admitted
}

// Breaker is a per-key circuit breaker: each key (a model fingerprint in
// recordd, a fleet endpoint in rclient) gets an
// independent circuit, so one pathological model failing its budget over
// and over stops consuming workers while every other model keeps
// compiling, and one dead node stops receiving traffic while the rest of
// the fleet keeps serving.
//
// A nil *Breaker allows everything and records nothing.
type Breaker struct {
	cfg BreakerConfig

	mu   sync.Mutex
	keys map[string]*circuit
}

// NewBreaker builds a breaker; zero-valued config fields get defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), keys: make(map[string]*circuit)}
}

func (b *Breaker) circuitFor(key string) *circuit {
	c, ok := b.keys[key]
	if !ok {
		c = &circuit{window: make([]bool, b.cfg.Window)}
		b.keys[key] = c
	}
	return c
}

// Allow reports whether a request for key may proceed.  Open circuits
// return an *OpenError carrying the remaining cooldown; once the cooldown
// elapses exactly one caller is admitted as the half-open probe and
// everyone else keeps failing fast until its outcome is Recorded.  A
// probe whose outcome is not Recorded within one Cooldown (it ended as a
// 4xx, the client went away) is forgotten, and the next caller is
// admitted as a new probe.
func (b *Breaker) Allow(key string) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuitFor(key)
	if c.state == Closed {
		return nil
	}
	now := b.cfg.Now()
	if wait := c.since.Add(b.cfg.Cooldown).Sub(now); wait > 0 {
		return &OpenError{Key: key, After: wait}
	}
	c.state, c.since = HalfOpen, now
	return nil
}

// Record lands the outcome of a request for key.  In closed state the
// outcome joins the rolling window and may trip the circuit.  Otherwise a
// success closes the circuit with a clean window — the half-open probe
// came back fine, or a straggler or health check proved the key alive
// while it was open — and a failed probe reopens it for another
// cooldown.  A failure recorded while open is a straggler from before
// the trip and carries no information.
func (b *Breaker) Record(key string, success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	c := b.circuitFor(key)
	var tripped bool
	switch {
	case c.state == Closed:
		c.push(!success)
		tripped = c.n >= b.cfg.MinSamples &&
			float64(c.fails) >= b.cfg.FailureRate*float64(c.n)
	case success:
		c.state = Closed
		c.clearWindow()
	default:
		tripped = c.state == HalfOpen
	}
	if tripped {
		c.state, c.since = Open, b.cfg.Now()
		c.clearWindow()
	}
	onTrip := b.cfg.OnTrip
	b.mu.Unlock()
	if tripped && onTrip != nil {
		onTrip(key)
	}
}

// State returns the current state of key's circuit (Closed for unknown
// keys), refreshing an expired Open into HalfOpen the way Allow would.
func (b *Breaker) State(key string) State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.keys[key]
	if !ok {
		return Closed
	}
	if c.state == Open && !b.cfg.Now().Before(c.since.Add(b.cfg.Cooldown)) {
		return HalfOpen
	}
	return c.state
}

func (c *circuit) push(failure bool) {
	if c.n == len(c.window) {
		if c.window[c.idx] {
			c.fails--
		}
	} else {
		c.n++
	}
	c.window[c.idx] = failure
	if failure {
		c.fails++
	}
	c.idx = (c.idx + 1) % len(c.window)
}

func (c *circuit) clearWindow() {
	for i := range c.window {
		c.window[i] = false
	}
	c.idx, c.n, c.fails = 0, 0, 0
}
