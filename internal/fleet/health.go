package fleet

import (
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
// straggler's, a Healthz check's — closes the circuit.  Callers contact
// an endpoint only when Allow(endpoint) == nil, ask just before that
// contact (Allow may claim the endpoint's half-open probe), and land
// every outcome with Record.
func NewHealth() *resilience.Breaker { return resilience.NewBreaker(healthConfig) }
