package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// waitCond polls cond until it holds or the test deadline budget runs out.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrapeMetrics fetches /metrics as text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newTestPool builds a pool whose queue depth lands in the returned gauge.
func newTestPool(slots, maxQueue int, drain <-chan struct{}) (*pool, *obs.Gauge) {
	depth := obs.NewRegistry().Gauge("depth", "queued waiters")
	return newPool(slots, maxQueue, drain, depth), depth
}

// occupy claims n slots and returns a func releasing them all.
func occupy(t *testing.T, p *pool, n int) func() {
	t.Helper()
	rels := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		r, err := p.acquire(context.Background())
		if err != nil {
			t.Fatalf("occupy slot %d: %v", i, err)
		}
		rels = append(rels, r)
	}
	return func() {
		for _, r := range rels {
			r()
		}
	}
}

// requireIntact fails unless all slots are free and nobody waits.
func requireIntact(t *testing.T, p *pool, slots int, depth *obs.Gauge) {
	t.Helper()
	p.mu.Lock()
	free, queued := p.free, len(p.waiters)
	p.mu.Unlock()
	if free != slots || queued != 0 || depth.Value() != 0 {
		t.Fatalf("pool not intact: %d of %d slots free, %d queued, depth gauge %d", free, slots, queued, depth.Value())
	}
}

func TestPoolImmediateGrantAndRelease(t *testing.T) {
	p, depth := newTestPool(2, 0, nil)
	r1, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if depth.Value() != 0 {
		t.Fatalf("immediate grants queued: depth %d", depth.Value())
	}
	r1()
	r1() // idempotent
	r2()
	// The double release returned no extra slot.
	requireIntact(t, p, 2, depth)
	free := occupy(t, p, 2)
	defer free()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third acquire on a two-slot pool: want a deadline, got %v", err)
	}
}

func TestPoolFIFOOrder(t *testing.T) {
	p, depth := newTestPool(1, 0, nil)
	free := occupy(t, p, 1)

	// Queue eight waiters one at a time, then hand the slot back: each
	// grant's release chains the next, so the grant order is the pool's.
	const n = 8
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := p.acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}(i)
		waitCond(t, "the waiter to queue", func() bool { return depth.Value() == int64(i+1) })
	}
	free()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want arrival order", order)
		}
	}
	if len(order) != n {
		t.Fatalf("%d of %d waiters granted", len(order), n)
	}
	requireIntact(t, p, 1, depth)
}

func TestPoolShedsAtMaxQueue(t *testing.T) {
	p, depth := newTestPool(1, 2, nil)
	free := occupy(t, p, 1)

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rel, err := p.acquire(context.Background())
			if err == nil {
				rel()
			}
			errs <- err
		}()
	}
	waitCond(t, "the queue to fill", func() bool { return depth.Value() == 2 })

	_, err := p.acquire(context.Background())
	var ov *resilience.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("arrival on a full queue: want OverloadError, got %v", err)
	}
	if ov.Queue != 2 || ov.Limit != 2 || ov.After != time.Second {
		t.Fatalf("shed %+v, want queue 2, limit 2, retry after 1s", ov)
	}

	// The shed took no slot and no place: both waiters still get theirs.
	free()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued waiter refused: %v", err)
		}
	}
	requireIntact(t, p, 1, depth)
}

func TestPoolDrainReleasesWaiters(t *testing.T) {
	drain := make(chan struct{})
	p, depth := newTestPool(1, 0, drain)
	free := occupy(t, p, 1)

	const n = 3
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := p.acquire(context.Background())
			errc <- err
		}()
	}
	waitCond(t, "the waiters to queue", func() bool { return depth.Value() == n })
	close(drain)
	for i := 0; i < n; i++ {
		if err := <-errc; !resilience.IsDraining(err) {
			t.Fatalf("drained waiter: want DrainingError, got %v", err)
		}
	}
	// New arrivals are refused outright.
	if _, err := p.acquire(context.Background()); !resilience.IsDraining(err) {
		t.Fatalf("post-drain arrival: want DrainingError, got %v", err)
	}
	free()
	requireIntact(t, p, 1, depth)
}

func TestPoolCancelWhileQueued(t *testing.T) {
	p, depth := newTestPool(1, 1, nil)
	free := occupy(t, p, 1)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.acquire(ctx)
		errc <- err
	}()
	waitCond(t, "the waiter to queue", func() bool { return depth.Value() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if depth.Value() != 0 {
		t.Fatalf("cancelled waiter kept its place: depth %d", depth.Value())
	}

	// Its place is free again: a new waiter fits under -max-queue 1 and
	// gets the slot once it frees up.
	got := make(chan error, 1)
	go func() {
		rel, err := p.acquire(context.Background())
		if err == nil {
			rel()
		}
		got <- err
	}()
	waitCond(t, "the next waiter to queue", func() bool { return depth.Value() == 1 })
	free()
	if err := <-got; err != nil {
		t.Fatalf("waiter after a cancel: %v", err)
	}
	requireIntact(t, p, 1, depth)
}

// TestPoolGrantRacingCancelHandsSlotOn: a waiter that gives up while a
// release hands it the slot must pass that slot on to the next waiter.
func TestPoolGrantRacingCancelHandsSlotOn(t *testing.T) {
	p, depth := newTestPool(1, 0, nil)
	for i := 0; i < 200; i++ {
		hold := occupy(t, p, 1)
		ctx, cancel := context.WithCancel(context.Background())
		first := make(chan error, 1)
		go func() {
			rel, err := p.acquire(ctx)
			if err == nil {
				rel()
			}
			first <- err
		}()
		waitCond(t, "the first waiter to queue", func() bool { return depth.Value() == 1 })
		next := make(chan error, 1)
		go func() {
			rel, err := p.acquire(context.Background())
			if err == nil {
				rel()
			}
			next <- err
		}()
		waitCond(t, "the next waiter to queue", func() bool { return depth.Value() == 2 })
		go cancel()
		hold()
		if err := <-first; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("first waiter: %v", err)
		}
		if err := <-next; err != nil {
			t.Fatalf("next waiter never got the slot: %v", err)
		}
		requireIntact(t, p, 1, depth)
	}
}

func TestPoolConcurrentChurn(t *testing.T) {
	// Hammer the pool from many goroutines under -race: every grant must
	// be released, every refusal must be typed, and the pool must end
	// intact.
	const slots = 4
	p, depth := newTestPool(slots, 8, nil)
	var granted, shed, timedOut atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				rel, err := p.acquire(ctx)
				var ov *resilience.OverloadError
				switch {
				case err == nil:
					granted.Add(1)
					time.Sleep(time.Microsecond)
					rel()
				case errors.As(err, &ov):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					timedOut.Add(1)
				default:
					t.Errorf("untyped refusal: %v", err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("storm granted nothing")
	}
	if got := granted.Load() + shed.Load() + timedOut.Load(); got != 64*50 {
		t.Fatalf("accounted for %d of %d acquires", got, 64*50)
	}
	requireIntact(t, p, slots, depth)
}
