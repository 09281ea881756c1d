package qos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/resilience"
)

// Config tunes a Scheduler.
type Config struct {
	// Capacity is the number of worker slots (the old pool semaphore).
	Capacity int
	// MaxQueue bounds the total queued waiters across all classes; an
	// arrival beyond it is shed with 429.  0 = unlimited.
	MaxQueue int
	// Drain, when closed, releases every queued waiter with a
	// DrainingError and refuses new arrivals.  Nil = never drains.
	Drain <-chan struct{}
	// OnDepth, when set, observes each class's queue depth after every
	// change (for gauges).  Called with the scheduler lock held: it must
	// not call back into the scheduler.
	OnDepth func(cl Class, depth int)
}

// waiter states.  Transitions happen under the scheduler mutex; the
// state decides who owns the slot (or the shed error) when a grant
// races the waiter's context cancellation.
type wstate uint8

const (
	wQueued  wstate = iota // in a class queue
	wGranted               // popped and handed a slot
	wShed                  // evicted; its res carries the shed error
	wGone                  // abandoned by its own goroutine
)

type waiter struct {
	class Class
	state wstate
	res   chan error // buffered(1): nil = slot granted, else refusal
}

// Scheduler is a weighted multi-queue worker pool: Capacity slots,
// one FIFO queue per priority class, and smooth weighted round-robin
// dispatch (weights) across non-empty queues so batch load never
// starves interactive traffic.  Under overload batch is always shed
// first: an interactive arrival that finds the queue full evicts the
// newest queued batch waiter and takes its place.
//
// The scheduler keeps no tallies: every grant and typed refusal is
// returned by Acquire, and queue depth is reported through
// Config.OnDepth, so the caller counts each event once, in its registry.
//
// A nil *Scheduler grants everything immediately (unlimited pool).
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	free   int // unclaimed slots
	queues [NumClasses][]*waiter
	credit [NumClasses]int // smooth-WRR running credit
}

// NewScheduler builds a Scheduler; a zero Capacity takes 4 slots and a
// zero MaxQueue leaves the queue unbounded.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4
	}
	return &Scheduler{cfg: cfg, free: cfg.Capacity}
}

// Acquire claims a worker slot for a real request of class cl, queueing
// behind the weighted dispatcher when the pool is busy.  The returned
// release must be called exactly once when the work is done (it is
// idempotent).  Refusals are typed: *resilience.OverloadError when the
// waiter bound sheds the request (or evicts it, batch first),
// *resilience.DrainingError when the drain starts, and the context's
// error when the caller gives up first.
func (s *Scheduler) Acquire(ctx context.Context, cl Class) (release func(), err error) {
	if s == nil {
		return func() {}, nil
	}
	select {
	case <-s.cfg.Drain:
		return nil, &resilience.DrainingError{After: time.Second}
	default:
	}

	s.mu.Lock()
	if s.free > 0 && s.queuedLocked() == 0 {
		s.free--
		s.mu.Unlock()
		return s.releaseOnce(), nil
	}
	if s.cfg.MaxQueue > 0 && s.queuedLocked() >= s.cfg.MaxQueue {
		// Full queue: batch arrivals shed; interactive arrivals displace
		// the newest queued batch waiter, and only shed when the queue
		// is all interactive.
		if cl == Batch || !s.evictNewestLocked(Batch) {
			depth := s.queuedLocked()
			s.mu.Unlock()
			return nil, &resilience.OverloadError{
				Queue: depth, Limit: s.cfg.MaxQueue, After: retryAfter[cl],
			}
		}
	}
	w := &waiter{class: cl, res: make(chan error, 1)}
	s.queues[cl] = append(s.queues[cl], w)
	s.depthChangedLocked(cl)
	s.mu.Unlock()

	select {
	case err := <-w.res:
		if err != nil {
			return nil, err
		}
		return s.releaseOnce(), nil
	case <-ctx.Done():
		return nil, s.abandon(w, fmt.Errorf("worker pool saturated: %w", ctx.Err()))
	case <-s.cfg.Drain:
		return nil, s.abandon(w, &resilience.DrainingError{After: time.Second})
	}
}

// abandon resolves the race between a waiter's own wakeup (ctx done or
// drain) and a concurrent grant or eviction.
func (s *Scheduler) abandon(w *waiter, cause error) error {
	s.mu.Lock()
	switch w.state {
	case wQueued:
		s.removeLocked(w)
		w.state = wGone
		s.depthChangedLocked(w.class)
		s.mu.Unlock()
		return cause
	case wGranted:
		// The grant raced our wakeup: we own a slot nobody will use —
		// hand it to the next waiter.
		s.handBackLocked()
		s.mu.Unlock()
		return cause
	default: // wShed: the eviction's typed error wins
		s.mu.Unlock()
		return <-w.res
	}
}

// releaseOnce returns the idempotent slot-release closure handed to a
// granted waiter.
func (s *Scheduler) releaseOnce() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.handBackLocked()
			s.mu.Unlock()
		})
	}
}

// handBackLocked returns one slot to the pool: the weighted dispatcher
// picks the next waiter, or the slot goes free.
func (s *Scheduler) handBackLocked() {
	if w := s.nextLocked(); w != nil {
		w.state = wGranted
		s.depthChangedLocked(w.class)
		w.res <- nil
		return
	}
	s.free++
}

// nextLocked pops the next waiter by smooth weighted round-robin over
// the non-empty class queues: each round every contending class gains
// its weight in credit, the highest-credit class is served and pays the
// total back.  An emptied queue forfeits its credit, so a class cannot
// bank credit while it has nothing to run.
func (s *Scheduler) nextLocked() *waiter {
	total, best := 0, -1
	for c := 0; c < NumClasses; c++ {
		if len(s.queues[c]) == 0 {
			s.credit[c] = 0
			continue
		}
		s.credit[c] += weights[c]
		total += weights[c]
		if best < 0 || s.credit[c] > s.credit[best] {
			best = c
		}
	}
	if best < 0 {
		return nil
	}
	s.credit[best] -= total
	w := s.queues[best][0]
	s.queues[best] = s.queues[best][1:]
	return w
}

// evictNewestLocked sheds the newest queued waiter of class cl to make
// room, delivering it a typed overload error.  Reports whether a victim
// existed.
func (s *Scheduler) evictNewestLocked(cl Class) bool {
	q := s.queues[cl]
	if len(q) == 0 {
		return false
	}
	w := q[len(q)-1]
	s.queues[cl] = q[:len(q)-1]
	w.state = wShed
	s.depthChangedLocked(cl)
	w.res <- &resilience.OverloadError{
		Queue: s.queuedLocked(), Limit: s.cfg.MaxQueue, After: retryAfter[cl],
	}
	return true
}

// removeLocked splices w out of its class queue.
func (s *Scheduler) removeLocked(w *waiter) {
	q := s.queues[w.class]
	for i, cand := range q {
		if cand == w {
			s.queues[w.class] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

func (s *Scheduler) queuedLocked() int {
	n := 0
	for c := 0; c < NumClasses; c++ {
		n += len(s.queues[c])
	}
	return n
}

func (s *Scheduler) depthChangedLocked(cl Class) {
	if s.cfg.OnDepth != nil {
		s.cfg.OnDepth(cl, len(s.queues[cl]))
	}
}
