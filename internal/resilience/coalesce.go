package resilience

import (
	"context"
	"sync"
	"sync/atomic"
)

// Coalescer merges concurrent duplicate calls (a singleflight): the first
// caller for a key (the leader) runs its fn; every caller that arrives
// while the leader is still working (a follower) waits and receives the
// leader's exact result.  internal/rcache runs every cache fill through
// one, so concurrent requests for one model share one retarget.
//
// A follower is bound by its own context only: it stops waiting when its
// ctx ends, and it never inherits the leader's cancellation.  When the
// leader's ctx (the one passed to Do) ended before its call returned, a
// waiting follower runs its own fn under its own ctx instead and becomes
// the leader for anyone still waiting.  A leader whose ctx is still live
// shares whatever it got, errors included.  A nil *Coalescer runs every
// call itself (coalescing off).
type Coalescer struct {
	mu      sync.Mutex
	flights map[string]*flight
	merged  atomic.Uint64
}

// flight is one in-progress leader call; followers wait on done.
type flight struct {
	done      chan struct{}
	val       interface{}
	err       error
	abandoned bool // the leader's ctx ended before its call returned
}

// Do runs fn for key, or joins an in-progress call for the same key.
// shared reports whether the result came from another caller's run —
// the caller's own fn never executed.  On a follower whose ctx ends
// first, Do returns (nil, true, ctx.Err()).
func (c *Coalescer) Do(ctx context.Context, key string, fn func() (interface{}, error)) (v interface{}, shared bool, err error) {
	if c == nil {
		v, err = fn()
		return v, false, err
	}
	for {
		c.mu.Lock()
		f, ok := c.flights[key]
		if !ok {
			if c.flights == nil {
				c.flights = make(map[string]*flight)
			}
			f = &flight{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()

			f.val, f.err = fn()
			f.abandoned = ctx.Err() != nil
			c.mu.Lock()
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
			return f.val, false, f.err
		}
		c.mu.Unlock()
		c.merged.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
		if !f.abandoned {
			return f.val, true, f.err
		}
	}
}

// Merged reports how many times a caller joined another caller's run,
// whether or not its wait completed; a follower that takes over counts
// again if it joins a newer leader.
func (c *Coalescer) Merged() uint64 {
	if c == nil {
		return 0
	}
	return c.merged.Load()
}
