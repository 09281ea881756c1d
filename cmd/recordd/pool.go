package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// pool is recordd's admission control: a fixed number of worker slots,
// granted in arrival order.  At most maxQueue requests wait for a slot;
// an arrival past that bound is shed at once.  Closing drain releases
// every waiter and refuses every later arrival.
//
// The pool keeps no tallies: every grant and typed refusal is returned by
// acquire, so the caller counts each event once, in its registry.  Only
// the queue depth is published, to depth.
type pool struct {
	maxQueue int             // waiter bound; 0 = unbounded
	drain    <-chan struct{} // closed when the drain starts; nil = never
	depth    *obs.Gauge      // queued waiters

	mu      sync.Mutex
	free    int       // unclaimed slots
	waiters []*waiter // FIFO
}

// waiter is one queued acquire.  granted is set, under the pool's mutex,
// when a released slot is handed to it; ready is closed at the same time.
type waiter struct {
	granted bool
	ready   chan struct{}
}

func newPool(slots, maxQueue int, drain <-chan struct{}, depth *obs.Gauge) *pool {
	return &pool{maxQueue: maxQueue, drain: drain, depth: depth, free: slots}
}

// acquire claims a slot, queueing behind earlier arrivals when the pool is
// busy.  The returned release must be called when the work ends; it is
// idempotent.  Refusals are typed: *resilience.OverloadError when the
// queue is full, *resilience.DrainingError once the drain starts, and the
// context's error, wrapped, when the caller gives up first.
func (p *pool) acquire(ctx context.Context) (release func(), err error) {
	select {
	case <-p.drain:
		return nil, &resilience.DrainingError{After: time.Second}
	default:
	}

	p.mu.Lock()
	if p.free > 0 && len(p.waiters) == 0 {
		p.free--
		p.mu.Unlock()
		return p.releaser(), nil
	}
	if p.maxQueue > 0 && len(p.waiters) >= p.maxQueue {
		n := len(p.waiters)
		p.mu.Unlock()
		return nil, &resilience.OverloadError{Queue: n, Limit: p.maxQueue, After: time.Second}
	}
	w := &waiter{ready: make(chan struct{})}
	p.waiters = append(p.waiters, w)
	p.depth.Set(int64(len(p.waiters)))
	p.mu.Unlock()

	select {
	case <-w.ready:
		return p.releaser(), nil
	case <-ctx.Done():
		err = fmt.Errorf("worker pool saturated: %w", ctx.Err())
	case <-p.drain:
		err = &resilience.DrainingError{After: time.Second}
	}
	p.mu.Lock()
	if w.granted {
		// The grant raced this wakeup: the slot is ours but unused, so it
		// goes to the next waiter.
		p.handBackLocked()
	} else {
		p.removeLocked(w)
	}
	p.mu.Unlock()
	return nil, err
}

// releaser returns the idempotent slot release handed to a grant.
func (p *pool) releaser() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.handBackLocked()
			p.mu.Unlock()
		})
	}
}

// handBackLocked returns one slot: to the oldest waiter, or to the free
// count when nobody waits.
func (p *pool) handBackLocked() {
	if len(p.waiters) == 0 {
		p.free++
		return
	}
	w := p.waiters[0]
	p.waiters = p.waiters[1:]
	p.depth.Set(int64(len(p.waiters)))
	w.granted = true
	close(w.ready)
}

// removeLocked splices a waiter that gave up out of the queue.
func (p *pool) removeLocked(w *waiter) {
	for i, cand := range p.waiters {
		if cand == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			p.depth.Set(int64(len(p.waiters)))
			return
		}
	}
}
