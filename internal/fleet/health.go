package fleet

import (
	"context"
	"sort"
	"time"

	"repro/internal/resilience"
)

// healthConfig is the endpoint policy: a circuit opens after three
// consecutive failures, then admits one probe request per 2 s cooldown.
var healthConfig = resilience.BreakerConfig{
	Window:      3,
	MinSamples:  3,
	FailureRate: 1,
	Cooldown:    2 * time.Second,
}

// NewHealth builds the fleet's per-endpoint health: a circuit breaker
// keyed by endpoint under healthConfig.  A probe whose outcome never
// arrives expires after one cooldown, and any success — the probe's, a
// straggler's, a /healthz check's — closes the circuit.  Callers route to
// an endpoint only when Allow(endpoint) == nil and land every outcome
// with Record.
func NewHealth() *resilience.Breaker { return resilience.NewBreaker(healthConfig) }

// Prober drives endpoint health from periodic /healthz checks: every tick
// it probes each endpoint and records the outcome, so a dead node is
// noticed even when no request traffic touches it, and a revived node
// rejoins the rotation without waiting for a request-path probe.
type Prober struct {
	// Health receives the probe outcomes.
	Health *resilience.Breaker
	// Endpoints are the names to probe.
	Endpoints []string
	// Check performs one health check (a GET /healthz round trip).
	Check func(ctx context.Context, endpoint string) error
	// Interval is the probe period (default 5s).
	Interval time.Duration
	// Tick overrides the internal ticker when non-nil — injectable so
	// tests drive probes without wall time.
	Tick <-chan time.Time
}

// Once probes every endpoint, in sorted order, recording each outcome.
func (p *Prober) Once(ctx context.Context) {
	eps := append([]string(nil), p.Endpoints...)
	sort.Strings(eps)
	for _, ep := range eps {
		if ctx.Err() != nil {
			return
		}
		p.Health.Record(ep, p.Check(ctx, ep) == nil)
	}
}

// Run probes on every tick until ctx is done.
func (p *Prober) Run(ctx context.Context) {
	tick := p.Tick
	if tick == nil {
		iv := p.Interval
		if iv <= 0 {
			iv = 5 * time.Second
		}
		t := time.NewTicker(iv)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			p.Once(ctx)
		}
	}
}
