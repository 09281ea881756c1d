package qos

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

func TestParseClassTable(t *testing.T) {
	cases := []struct {
		in   string
		def  Class
		want Class
	}{
		{"interactive", Batch, Interactive},
		{"batch", Interactive, Batch},
		{"  Batch \t", Interactive, Batch},
		{"INTERACTIVE", Batch, Interactive},
		{"", Interactive, Interactive},
		{"", Batch, Batch},
		{"garbage", Interactive, Interactive},
		{"garbage", Batch, Batch},
		{"high", Batch, Batch},
		{"0", Interactive, Interactive},
		{"🦄", Batch, Batch},
		{"batch\x00", Interactive, Interactive},
	}
	for _, c := range cases {
		if got := ParseClass(c.in, c.def); got != c.want {
			t.Errorf("ParseClass(%q, %v) = %v, want %v", c.in, c.def, got, c.want)
		}
	}
}

func FuzzParseClass(f *testing.F) {
	for _, s := range []string{"", "interactive", "batch", "Batch", "BATCH ", "garbage", "high", "🦄", "batch,interactive", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Whatever the input, the result is a valid class and the
		// function is deterministic — a bad header can never escalate
		// into an error path.
		got := ParseClass(s, Batch)
		if got != Interactive && got != Batch {
			t.Fatalf("ParseClass(%q) = %v: not a valid class", s, got)
		}
		if again := ParseClass(s, Batch); again != got {
			t.Fatalf("ParseClass(%q) nondeterministic: %v then %v", s, got, again)
		}
		// The two canonical names parse regardless of default.
		if ParseClass(s, Interactive) != ParseClass(s, Batch) {
			lower := ParseClass(s, Interactive)
			if lower != Interactive {
				t.Fatalf("ParseClass(%q) depends on default yet is not the default: %v", s, lower)
			}
		}
	})
}

// depthLog records the queue depth each class last reported through
// Config.OnDepth — the scheduler's only observable state, and the one a
// caller's queue gauge sees.
type depthLog struct{ d [NumClasses]atomic.Int64 }

func (l *depthLog) observe(cl Class, n int) { l.d[cl].Store(int64(n)) }
func (l *depthLog) of(cl Class) int         { return int(l.d[cl].Load()) }
func (l *depthLog) total() int              { return l.of(Interactive) + l.of(Batch) }

// newScheduler builds a Scheduler whose queue depths land in the
// returned log.
func newScheduler(cfg Config) (*Scheduler, *depthLog) {
	l := &depthLog{}
	cfg.OnDepth = l.observe
	return NewScheduler(cfg), l
}

func TestNilSchedulerAdmitsEverything(t *testing.T) {
	var s *Scheduler
	release, err := s.Acquire(context.Background(), Batch)
	if err != nil {
		t.Fatalf("nil scheduler refused: %v", err)
	}
	release()
}

func TestSchedulerImmediateGrantAndRelease(t *testing.T) {
	s, depth := newScheduler(Config{Capacity: 2})
	r1, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Acquire(context.Background(), Batch)
	if err != nil {
		t.Fatal(err)
	}
	r1()
	r1() // idempotent
	r2()
	if depth.total() != 0 {
		t.Fatalf("immediate grants queued: depth %d", depth.total())
	}
	// All slots back, and the double release returned no extra one: two
	// more acquires succeed immediately and a third has to queue.
	free := occupy(t, s, 2)
	defer free()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Acquire(ctx, Interactive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third acquire on a two-slot pool: want a deadline, got %v", err)
	}
}

// occupy claims every slot and returns a func releasing them all.
func occupy(t *testing.T, s *Scheduler, n int) func() {
	t.Helper()
	rels := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		r, err := s.Acquire(context.Background(), Interactive)
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

func TestSchedulerWeightedDispatchOrder(t *testing.T) {
	s, depth := newScheduler(Config{Capacity: 1})
	free := occupy(t, s, 1)

	// Queue 16 interactive and 2 batch waiters, then hand the slot back:
	// each grant's release chains the next, so the grant order is the
	// dispatcher's order.  Enqueue deterministically by waiting until
	// each waiter is visibly queued.
	var mu sync.Mutex
	var order []Class
	var wg sync.WaitGroup
	add := func(cl Class, wantDepth int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := s.Acquire(context.Background(), cl)
			if err != nil {
				t.Errorf("acquire %v: %v", cl, err)
				return
			}
			mu.Lock()
			order = append(order, cl)
			mu.Unlock()
			rel()
		}()
		waitFor(t, func() bool { return depth.of(cl) >= wantDepth })
	}
	for i := 1; i <= 16; i++ {
		add(Interactive, i)
	}
	add(Batch, 1)
	add(Batch, 2)

	free() // hand the slot back; each waiter's release chains the next
	wg.Wait()

	// Smooth WRR at the fixed 8:1 interleaves rather than bursting: each
	// round of nine grants is I I I I B I I I I — interactive gets its
	// 8/9 share and batch is never starved.
	round := []Class{Interactive, Interactive, Interactive, Interactive, Batch,
		Interactive, Interactive, Interactive, Interactive}
	want := append(append([]Class{}, round...), round...)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("got %d grants, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerBatchShedFirst(t *testing.T) {
	s, depth := newScheduler(Config{Capacity: 1, MaxQueue: 2})
	free := occupy(t, s, 1)
	defer free()

	// overload asserts err is the typed shed and returns it.
	overload := func(what string, err error) *resilience.OverloadError {
		t.Helper()
		var ov *resilience.OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("%s: want OverloadError, got %T: %v", what, err, err)
		}
		return ov
	}

	// Fill the queue with two batch waiters.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rel, err := s.Acquire(context.Background(), Batch)
			if err == nil {
				rel()
			}
			errs <- err
		}()
	}
	waitFor(t, func() bool { return depth.of(Batch) == 2 })

	// A batch arrival on a full queue is shed outright, with batch's
	// Retry-After hint.
	_, err := s.Acquire(context.Background(), Batch)
	if ov := overload("batch arrival on full queue", err); ov.After != retryAfter[Batch] {
		t.Fatalf("batch Retry-After = %v, want %v", ov.After, retryAfter[Batch])
	}

	// An interactive arrival displaces the NEWEST queued batch waiter.
	done := make(chan struct{})
	go func() {
		rel, err := s.Acquire(context.Background(), Interactive)
		if err != nil {
			t.Errorf("interactive displaced instead of admitted: %v", err)
		} else {
			rel()
		}
		close(done)
	}()
	// One of the queued batch acquires comes back shed.
	select {
	case err := <-errs:
		overload("evicted batch waiter", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no batch waiter was evicted")
	}
	waitFor(t, func() bool { return depth.of(Interactive) == 1 })
	if depth.of(Batch) != 1 {
		t.Fatalf("batch depth %d after one eviction, want 1", depth.of(Batch))
	}

	// Queue now holds one batch + one interactive; an interactive
	// arrival evicts the remaining batch waiter, and the NEXT
	// interactive arrival (all-interactive queue) is shed itself.
	go func() {
		rel, err := s.Acquire(context.Background(), Interactive)
		if err == nil {
			rel()
		}
	}()
	select {
	case err := <-errs:
		overload("second eviction", err)
	case <-time.After(5 * time.Second):
		t.Fatal("second batch waiter not evicted")
	}
	waitFor(t, func() bool { return depth.of(Interactive) == 2 })
	_, err = s.Acquire(context.Background(), Interactive)
	// Retry-After hints are per-class.
	if ov := overload("interactive on all-interactive full queue", err); ov.After != retryAfter[Interactive] {
		t.Fatalf("interactive Retry-After = %v, want %v", ov.After, retryAfter[Interactive])
	}

	free() // let the queued waiters drain
	<-done
	waitFor(t, func() bool { return depth.total() == 0 })
}

func TestSchedulerDrainReleasesWaiters(t *testing.T) {
	drain := make(chan struct{})
	s, depth := newScheduler(Config{Capacity: 1, Drain: drain})
	free := occupy(t, s, 1)
	defer free()

	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(context.Background(), Interactive)
		errc <- err
	}()
	waitFor(t, func() bool { return depth.of(Interactive) == 1 })
	close(drain)
	err := <-errc
	if !resilience.IsDraining(err) {
		t.Fatalf("drained waiter: want DrainingError, got %v", err)
	}
	// New arrivals are refused outright.
	if _, err := s.Acquire(context.Background(), Batch); !resilience.IsDraining(err) {
		t.Fatalf("post-drain arrival: want DrainingError, got %v", err)
	}
}

func TestSchedulerContextCancelWhileQueued(t *testing.T) {
	s, depth := newScheduler(Config{Capacity: 1})
	free := occupy(t, s, 1)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Batch)
		errc <- err
	}()
	waitFor(t, func() bool { return depth.of(Batch) == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitFor(t, func() bool { return depth.total() == 0 })

	// The pool is intact: release and re-acquire works.
	free()
	rel, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestSchedulerConcurrentChurn(t *testing.T) {
	// Hammer the scheduler from many goroutines under -race: every
	// grant must be released, every refusal must be typed, and the pool
	// must end intact.
	s, depth := newScheduler(Config{Capacity: 4, MaxQueue: 8})
	var granted, shed, timedOut atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		cl := Interactive
		if i%2 == 0 {
			cl = Batch
		}
		wg.Add(1)
		go func(cl Class) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				rel, err := s.Acquire(ctx, cl)
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
		}(cl)
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("storm granted nothing")
	}
	if got := granted.Load() + shed.Load() + timedOut.Load(); got != 64*50 {
		t.Fatalf("accounted for %d of %d acquires", got, 64*50)
	}
	// Pool intact: all four slots acquirable.
	free := occupy(t, s, 4)
	free()
	if depth.total() != 0 {
		t.Fatalf("queue not empty after storm: %d", depth.total())
	}
}
