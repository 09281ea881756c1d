package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The SLO objective every tracker monitors: 99.9% of events good, burn
// rates over a 1m fast and a 10m slow window.  Burn thresholds follow
// the SRE-workbook multi-window pattern: a page needs the fast AND slow
// windows burning at >=14.4x the error budget (1h/30d exhaustion pace
// scaled to these short windows); a warning needs both at >=6x.
const (
	sloAvailability = 0.999
	sloFastWindow   = time.Minute
	sloSlowWindow   = 10 * time.Minute
	sloPageBurn     = 14.4
	sloWarnBurn     = 6.0
)

// SLOConfig declares the objectives an SLOTracker monitors.
type SLOConfig struct {
	// Targets maps a route class to its latency objective: an event is
	// "good" iff it succeeded and finished within the target.
	Targets map[string]time.Duration
	// Now injects the clock for tests; nil = time.Now.
	Now func() time.Time
}

// sloBucket accumulates one second of events; the ring index recycles,
// so a bucket is valid only while its sec stamp matches.
type sloBucket struct {
	sec  int64
	good uint64
	bad  uint64
}

// sloClass is one route class's bucket ring plus its exported gauges.
type sloClass struct {
	target  time.Duration
	buckets []sloBucket // ring over the slow window's seconds, indexed sec%len
}

// SLOStatus is one route class's burn-rate snapshot as reported in
// /healthz and Health.
type SLOStatus struct {
	Target   string  `json:"target"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Page     bool    `json:"page"`
	Warn     bool    `json:"warn"`
}

// SLOTracker measures per-route-class latency/availability objectives
// with multi-window burn-rate alerting.  Observe is cheap (one bucket
// update under a short lock); burn rates are computed on demand by
// Refresh/Health so scrape cost stays off the request path.  All methods
// are nil-safe.
type SLOTracker struct {
	mu      sync.Mutex
	now     func() time.Time
	classes map[string]*sloClass

	events *CounterVec // <prefix>_events_total{route,result}
	burn   *GaugeVec   // <prefix>_burn_ppm{route,window}
	alert  *GaugeVec   // <prefix>_alert{route,severity}
}

// NewSLOTracker builds a tracker for cfg's route classes, registering
// its instruments under prefix (e.g. "record_recordd_slo").  A nil
// registry or empty target set returns nil, which discards.
func NewSLOTracker(reg *Registry, prefix string, cfg SLOConfig) *SLOTracker {
	if reg == nil || len(cfg.Targets) == 0 {
		return nil
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	t := &SLOTracker{
		now:     now,
		classes: make(map[string]*sloClass, len(cfg.Targets)),
		events: reg.CounterVec(prefix+"_events_total",
			"SLO events by route class and good/bad result.", "route", "result"),
		burn: reg.GaugeVec(prefix+"_burn_ppm",
			"Error-budget burn rate in parts per million (1e6 = burning exactly at budget).",
			"route", "window"),
		alert: reg.GaugeVec(prefix+"_alert",
			"Multi-window burn alert state (1 = firing).", "route", "severity"),
	}
	secs := int(sloSlowWindow / time.Second)
	for route, target := range cfg.Targets {
		t.classes[route] = &sloClass{target: target, buckets: make([]sloBucket, secs)}
		// Pre-touch the label sets so exposition shows every class from
		// the first scrape.
		t.events.With(route, "good")
		t.events.With(route, "bad")
		t.burn.With(route, "fast")
		t.burn.With(route, "slow")
		t.alert.With(route, "page")
		t.alert.With(route, "warn")
	}
	return t
}

// Observe records one request against its route class's objective.  An
// event is good iff ok and within the class latency target.  Unknown
// routes are dropped.
func (t *SLOTracker) Observe(route string, latency time.Duration, ok bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	c := t.classes[route]
	if c == nil {
		t.mu.Unlock()
		return
	}
	sec := t.now().Unix()
	b := &c.buckets[int(sec%int64(len(c.buckets)))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	good := ok && latency <= c.target
	if good {
		b.good++
	} else {
		b.bad++
	}
	t.mu.Unlock()
	if good {
		t.events.With(route, "good").Inc()
	} else {
		t.events.With(route, "bad").Inc()
	}
}

// window sums a class's buckets over the trailing d and returns the
// burn rate: badFraction / errorBudget.  Zero traffic burns nothing.
// Call with t.mu held.
func (t *SLOTracker) windowBurn(c *sloClass, now int64, d time.Duration) float64 {
	secs := int64(d / time.Second) // d is at most the slow window the ring spans
	var good, bad uint64
	for s := now - secs + 1; s <= now; s++ {
		b := &c.buckets[int(((s%int64(len(c.buckets)))+int64(len(c.buckets)))%int64(len(c.buckets)))]
		if b.sec == s {
			good += b.good
			bad += b.bad
		}
	}
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - sloAvailability
	return (float64(bad) / float64(total)) / budget
}

// Refresh recomputes burn-rate gauges and alert states for every class.
// recordd calls it from /metrics and /healthz so the gauges are current
// at each scrape without any background goroutine.
func (t *SLOTracker) Refresh() {
	if t == nil {
		return
	}
	t.Health()
}

// Health returns the per-class burn snapshot (and, as a side effect,
// refreshes the exported gauges).  A page fires when both windows burn
// at >= 14.4x the budget; a warning when both burn at >= 6x.
func (t *SLOTracker) Health() map[string]SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	now := t.now().Unix()
	type cb struct {
		route      string
		fast, slow float64
		target     time.Duration
	}
	snaps := make([]cb, 0, len(t.classes))
	for route, c := range t.classes {
		snaps = append(snaps, cb{
			route:  route,
			fast:   t.windowBurn(c, now, sloFastWindow),
			slow:   t.windowBurn(c, now, sloSlowWindow),
			target: c.target,
		})
	}
	t.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].route < snaps[j].route })

	out := make(map[string]SLOStatus, len(snaps))
	for _, s := range snaps {
		page := s.fast >= sloPageBurn && s.slow >= sloPageBurn
		warn := s.fast >= sloWarnBurn && s.slow >= sloWarnBurn
		t.burn.With(s.route, "fast").Set(int64(math.Round(s.fast * 1e6)))
		t.burn.With(s.route, "slow").Set(int64(math.Round(s.slow * 1e6)))
		t.alert.With(s.route, "page").Set(boolGauge(page))
		t.alert.With(s.route, "warn").Set(boolGauge(warn))
		out[s.route] = SLOStatus{
			Target:   s.target.String(),
			FastBurn: s.fast,
			SlowBurn: s.slow,
			Page:     page,
			Warn:     warn,
		}
	}
	return out
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
