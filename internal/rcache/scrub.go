package rcache

import (
	"context"
	"os"
	"time"

	"repro/internal/diag"
	"repro/internal/faultpoint"
)

// DefaultScrubRate is the scrub pacing when Options.ScrubRate is unset:
// artifacts verified per second.  A verification is one file read plus a
// SHA-256 over it, so even the default keeps scrub I/O far below serving
// traffic.
const DefaultScrubRate = 64

// ScrubReport summarizes one scrub cycle.
type ScrubReport struct {
	Scanned      int  // artifacts examined
	Clean        int  // verified intact
	Quarantined  int  // corrupt, renamed to <key>.quarantine
	Repaired     int  // quarantined keys re-fetched from a peer this cycle
	Unrepairable int  // quarantined keys no peer could supply
	Paused       bool // the cycle stopped early (degraded disk or ctx end)
}

// scrubPacer is a token bucket: rate tokens per second, burst of one
// second's worth, one token per verified artifact.  It keeps a scrub
// cycle from monopolizing disk bandwidth that serving traffic needs.
type scrubPacer struct {
	rate   float64
	tokens float64
	last   time.Time
}

func newScrubPacer(rate float64) *scrubPacer {
	if rate <= 0 {
		rate = DefaultScrubRate
	}
	return &scrubPacer{rate: rate, tokens: rate, last: time.Now()}
}

// wait blocks until a token is available or ctx ends.
func (p *scrubPacer) wait(ctx context.Context) error {
	now := time.Now()
	p.tokens += now.Sub(p.last).Seconds() * p.rate
	if p.tokens > p.rate {
		p.tokens = p.rate
	}
	p.last = now
	if p.tokens >= 1 {
		p.tokens--
		return nil
	}
	need := time.Duration((1 - p.tokens) / p.rate * float64(time.Second))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(need):
		p.tokens = 0
		p.last = time.Now()
		return nil
	}
}

// ScrubOnce walks every artifact in the disk store, re-verifies each
// against its content-addressed key (frame checksum plus self-identity),
// quarantines failures as <key>.quarantine — never deletes — and
// immediately attempts repair through the PeerFetch hook, which walks
// healthy peers in the key's rendezvous order and persists a verified
// copy.  The walk is paced by Options.ScrubRate.  Scrubbing pauses (the
// cycle ends early, Paused=true) when the disk tier degrades or ctx
// ends; a degraded tier means writes are failing, so neither quarantine
// renames nor repairs could land.
func (c *Cache) ScrubOnce(ctx context.Context) ScrubReport {
	c.scrubGate.Lock()
	defer c.scrubGate.Unlock()

	var rep ScrubReport
	if c.opts.Dir == "" || c.diskOff.Load() {
		rep.Paused = c.diskOff.Load()
		return rep
	}
	start := time.Now()
	pacer := newScrubPacer(c.opts.ScrubRate)
	for _, key := range c.Keys() {
		if ctx.Err() != nil || c.diskOff.Load() {
			rep.Paused = true
			break
		}
		if err := pacer.wait(ctx); err != nil {
			rep.Paused = true
			break
		}
		switch c.scrubOne(ctx, key) {
		case scrubAbsent:
			continue // evicted or repaired concurrently; nothing to count
		case scrubClean:
			rep.Clean++
		case scrubRepaired:
			rep.Quarantined++
			rep.Repaired++
		case scrubLost:
			rep.Quarantined++
			rep.Unrepairable++
		}
		rep.Scanned++
	}
	c.hScrubCycle.Observe(time.Since(start).Seconds())
	return rep
}

type scrubOutcome int

const (
	scrubAbsent scrubOutcome = iota
	scrubClean
	scrubRepaired
	scrubLost
)

// scrubOne verifies a single on-disk artifact, quarantining and repairing
// on failure.
func (c *Cache) scrubOne(ctx context.Context, key string) scrubOutcome {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return scrubAbsent
	}
	verr := faultpoint.Hit("rcache.scrub.verify", key)
	if verr == nil {
		_, verr = verifyArtifact(key, data)
	}
	if verr == nil {
		c.cScrub.With("clean").Inc()
		return scrubClean
	}
	c.quarantine(key, verr)
	if c.repair(ctx, key) {
		return scrubRepaired
	}
	return scrubLost
}

// repair re-fetches a quarantined key through the PeerFetch hook (which
// enumerates every healthy peer in the key's rendezvous order before
// giving up); peerEntry decode-verifies the bytes and persists them, so
// a successful repair leaves a fresh intact copy where the corrupt one
// sat.  Repairs are attributed to the scrub counters, not the serving
// hit counters.
func (c *Cache) repair(ctx context.Context, key string) bool {
	if c.opts.PeerFetch != nil && c.peerEntry(ctx, key) != nil {
		c.cScrub.With("repaired").Inc()
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"repaired quarantined artifact %s from a peer", key)
		return true
	}
	c.cScrub.With("unrepairable").Inc()
	c.opts.Reporter.Warnf("rcache", diag.Pos{},
		"quarantined artifact %s is unrepairable: no healthy peer has a copy", key)
	return false
}

// RunScrubber drives scrub cycles every interval until ctx ends or stop
// closes (recordd passes its drain channel: a draining node must not
// start new background disk work).  Cycles skip — rather than end the
// loop — while the disk tier is degraded, so a tier that recovers at
// restart resumes scrubbing without intervention.
func (c *Cache) RunScrubber(ctx context.Context, interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 || c.opts.Dir == "" {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-t.C:
			c.ScrubOnce(ctx)
		}
	}
}
