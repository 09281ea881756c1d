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

func TestParseWeights(t *testing.T) {
	w, err := ParseWeights("")
	if err != nil || w != DefaultWeights {
		t.Fatalf("empty spec: got %v, %v", w, err)
	}
	w, err = ParseWeights("interactive=5,batch=2")
	if err != nil || w[Interactive] != 5 || w[Batch] != 2 {
		t.Fatalf("got %v, %v", w, err)
	}
	w, err = ParseWeights(" Batch=3 ")
	if err != nil || w[Batch] != 3 || w[Interactive] != DefaultWeights[Interactive] {
		t.Fatalf("partial spec: got %v, %v", w, err)
	}
	for _, bad := range []string{"interactive", "interactive=0", "batch=-1", "batch=x", "urgent=2"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("ParseWeights(%q): want error", bad)
		}
	}
}

func TestNilSchedulerAdmitsEverything(t *testing.T) {
	var s *Scheduler
	release, err := s.Acquire(context.Background(), Batch)
	if err != nil {
		t.Fatalf("nil scheduler refused: %v", err)
	}
	release()
	if _, rel, ok := s.AcquireIdle(context.Background()); !ok {
		t.Fatal("nil scheduler refused idle lease")
	} else {
		rel()
	}
	if s.Depth(Batch) != 0 || s.Shed(Batch) != 0 {
		t.Fatal("nil scheduler has state")
	}
}

func TestSchedulerImmediateGrantAndRelease(t *testing.T) {
	s := NewScheduler(Config{Capacity: 2})
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
	if got := s.Dispatched(Interactive) + s.Dispatched(Batch); got != 2 {
		t.Fatalf("dispatched = %d, want 2", got)
	}
	// All slots back: another acquire succeeds immediately.
	r3, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	r3()
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
	s := NewScheduler(Config{Capacity: 1, Weights: [NumClasses]int{Interactive: 2, Batch: 1}})
	free := occupy(t, s, 1)

	// Queue 4 interactive and 2 batch waiters, then hand the slot back:
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
		waitFor(t, func() bool { return s.Depth(cl) >= wantDepth })
	}
	add(Interactive, 1)
	add(Interactive, 2)
	add(Interactive, 3)
	add(Interactive, 4)
	add(Batch, 1)
	add(Batch, 2)

	free() // hand the slot back; each waiter's release chains the next
	wg.Wait()

	// Smooth WRR at 2:1 interleaves rather than bursting: I B I I B I —
	// interactive gets its 2/3 share and batch is never starved.
	want := []Class{Interactive, Batch, Interactive, Interactive, Batch, Interactive}
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
	s := NewScheduler(Config{Capacity: 1, MaxQueue: 2})
	free := occupy(t, s, 1)
	defer free()

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
	waitFor(t, func() bool { return s.Depth(Batch) == 2 })

	// A batch arrival on a full queue is shed outright.
	if _, err := s.Acquire(context.Background(), Batch); err == nil {
		t.Fatal("batch arrival on full queue: want overload")
	} else {
		var ov *resilience.OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("want OverloadError, got %T: %v", err, err)
		}
	}
	if got := s.Shed(Batch); got != 1 {
		t.Fatalf("batch sheds = %d, want 1", got)
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
		var ov *resilience.OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("evicted batch waiter: want OverloadError, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no batch waiter was evicted")
	}
	if got := s.Shed(Batch); got != 2 {
		t.Fatalf("batch sheds = %d, want 2", got)
	}
	if got := s.Shed(Interactive); got != 0 {
		t.Fatalf("interactive sheds = %d, want 0", got)
	}
	waitFor(t, func() bool { return s.Depth(Interactive) == 1 })

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
		var ov *resilience.OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("second eviction: want OverloadError, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second batch waiter not evicted")
	}
	waitFor(t, func() bool { return s.Depth(Interactive) == 2 })
	_, err := s.Acquire(context.Background(), Interactive)
	var ov *resilience.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("interactive on all-interactive full queue: want OverloadError, got %v", err)
	}
	if got := s.Shed(Interactive); got != 1 {
		t.Fatalf("interactive sheds = %d, want 1", got)
	}
	// Retry-After hints are per-class.
	if ov.After != DefaultRetryAfter[Interactive] {
		t.Fatalf("interactive Retry-After = %v, want %v", ov.After, DefaultRetryAfter[Interactive])
	}

	free() // let the queued waiters drain
	<-done
}

func TestSchedulerDrainReleasesWaiters(t *testing.T) {
	drain := make(chan struct{})
	s := NewScheduler(Config{Capacity: 1, Drain: drain})
	free := occupy(t, s, 1)
	defer free()

	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(context.Background(), Interactive)
		errc <- err
	}()
	waitFor(t, func() bool { return s.Depth(Interactive) == 1 })
	close(drain)
	err := <-errc
	if !resilience.IsDraining(err) {
		t.Fatalf("drained waiter: want DrainingError, got %v", err)
	}
	// New arrivals are refused outright.
	if _, err := s.Acquire(context.Background(), Batch); !resilience.IsDraining(err) {
		t.Fatalf("post-drain arrival: want DrainingError, got %v", err)
	}
	// And no idle leases during drain.
	if _, _, ok := s.AcquireIdle(context.Background()); ok {
		t.Fatal("idle lease granted during drain")
	}
}

func TestSchedulerContextCancelWhileQueued(t *testing.T) {
	s := NewScheduler(Config{Capacity: 1})
	free := occupy(t, s, 1)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Batch)
		errc <- err
	}()
	waitFor(t, func() bool { return s.Depth(Batch) == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitFor(t, func() bool { return s.Queued() == 0 })

	// The pool is intact: release and re-acquire works.
	free()
	rel, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestSchedulerIdleLeaseYieldsToRealTraffic(t *testing.T) {
	s := NewScheduler(Config{Capacity: 1})

	lease, release, ok := s.AcquireIdle(context.Background())
	if !ok {
		t.Fatal("idle pool refused a lease")
	}
	if s.IdleGrants() != 1 {
		t.Fatalf("idle grants = %d, want 1", s.IdleGrants())
	}
	// Pool fully claimed by the lease: a second lease is refused.
	if _, _, ok := s.AcquireIdle(context.Background()); ok {
		t.Fatal("second lease granted over a full pool")
	}

	// A real request queues → the lease context is cancelled.
	got := make(chan error, 1)
	go func() {
		rel, err := s.Acquire(context.Background(), Interactive)
		if err == nil {
			rel()
		}
		got <- err
	}()
	select {
	case <-lease.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("lease not revoked by real arrival")
	}
	release() // the pre-warm work aborts and frees the slot
	if err := <-got; err != nil {
		t.Fatalf("real request after yield: %v", err)
	}

	// With traffic gone the next lease is granted again.
	_, release2, ok := s.AcquireIdle(context.Background())
	if !ok {
		t.Fatal("lease refused on idle pool after yield")
	}
	release2()
}

func TestSchedulerIdleLeaseRefusedWhenBusy(t *testing.T) {
	s := NewScheduler(Config{Capacity: 2})
	free := occupy(t, s, 1)
	defer free()
	// One slot busy with real work, one free, nobody queued: idle work
	// may still use the spare slot.
	_, release, ok := s.AcquireIdle(context.Background())
	if !ok {
		t.Fatal("lease refused with a free slot and empty queue")
	}
	release()
	free2 := occupy(t, s, 1)
	defer free2()
	// Now both slots are real work: no lease.
	if _, _, ok := s.AcquireIdle(context.Background()); ok {
		t.Fatal("lease granted with zero free slots")
	}
}

func TestSchedulerConcurrentChurn(t *testing.T) {
	// Hammer the scheduler from many goroutines under -race: every
	// grant must be released, and the pool must end intact.
	s := NewScheduler(Config{Capacity: 4, MaxQueue: 8})
	var granted, refused atomic.Uint64
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
				if err == nil {
					granted.Add(1)
					time.Sleep(time.Microsecond)
					rel()
				} else {
					refused.Add(1)
				}
				cancel()
			}
		}(cl)
	}
	// Interleave pre-warm leases with the storm.
	stop := make(chan struct{})
	var lwg sync.WaitGroup
	lwg.Add(1)
	go func() {
		defer lwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if lease, rel, ok := s.AcquireIdle(context.Background()); ok {
				select {
				case <-lease.Done():
				case <-time.After(time.Microsecond):
				}
				rel()
			}
		}
	}()
	wg.Wait()
	close(stop)
	lwg.Wait()
	if granted.Load() == 0 {
		t.Fatal("storm granted nothing")
	}
	// Pool intact: all four slots acquirable.
	free := occupy(t, s, 4)
	free()
	if s.Queued() != 0 {
		t.Fatalf("queue not empty after storm: %d", s.Queued())
	}
}

func TestPopularityDecayAndOrder(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	p := NewPopularity(time.Minute, 0, clock)

	p.Touch("a", "srcA")
	p.Touch("a", "")
	p.Touch("a", "")
	p.Touch("b", "srcB")

	top := p.Top(10)
	if len(top) != 2 || top[0].Key != "a" || top[1].Key != "b" {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Source != "srcA" || top[1].Source != "srcB" {
		t.Fatalf("sources lost: %+v", top)
	}
	if top[0].Score != 3 || top[1].Score != 1 {
		t.Fatalf("scores = %v, %v", top[0].Score, top[1].Score)
	}

	// Two half-lives later a's score is 0.75; one fresh touch on b (1.75)
	// overtakes it.
	now = now.Add(2 * time.Minute)
	p.Touch("b", "")
	top = p.Top(1)
	if len(top) != 1 || top[0].Key != "b" {
		t.Fatalf("after decay top = %+v", top)
	}

	// Top(n) truncates; empty source never clobbers a remembered one.
	if got := p.Top(1); len(got) != 1 {
		t.Fatalf("Top(1) returned %d", len(got))
	}
	all := p.Top(10)
	for _, hk := range all {
		if hk.Key == "b" && hk.Source != "srcB" {
			t.Fatalf("b lost its source: %+v", hk)
		}
	}
}

func TestPopularityBoundedEviction(t *testing.T) {
	now := time.Unix(0, 0)
	p := NewPopularity(time.Minute, 3, func() time.Time { return now })
	p.Touch("hot", "")
	p.Touch("hot", "")
	p.Touch("warm", "")
	p.Touch("warm", "")
	p.Touch("cold", "")
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	p.Touch("new", "") // 4th entry: the coldest ("cold" or "new", both score 1; largest key evicts)
	if p.Len() != 3 {
		t.Fatalf("after eviction len = %d", p.Len())
	}
	for _, hk := range p.Top(10) {
		if hk.Key == "new" {
			t.Fatalf("tie eviction dropped the wrong key: %+v", p.Top(10))
		}
	}
}

func TestPopularityNilSafe(t *testing.T) {
	var p *Popularity
	p.Touch("k", "src")
	if p.Top(5) != nil || p.Len() != 0 {
		t.Fatal("nil popularity has state")
	}
}

func TestPrewarmerSweep(t *testing.T) {
	now := time.Unix(0, 0)
	pop := NewPopularity(time.Minute, 0, func() time.Time { return now })
	pop.Touch("hot", "srcH")
	pop.Touch("hot", "")
	pop.Touch("cool", "srcC")

	sched := NewScheduler(Config{Capacity: 2})
	warm := map[string]bool{"cool": true}
	var mu sync.Mutex
	var warmedKeys []string
	pw := &Prewarmer{
		Sched:  sched,
		Pop:    pop,
		Top:    4,
		IsWarm: func(k string) bool { mu.Lock(); defer mu.Unlock(); return warm[k] },
		Warm: func(ctx context.Context, key, source string) error {
			mu.Lock()
			defer mu.Unlock()
			if key == "hot" && source != "srcH" {
				t.Errorf("hot warmed with source %q", source)
			}
			warm[key] = true
			warmedKeys = append(warmedKeys, key)
			return nil
		},
	}
	if n := pw.Sweep(context.Background()); n != 1 {
		t.Fatalf("sweep warmed %d, want 1 (cool already warm)", n)
	}
	mu.Lock()
	if len(warmedKeys) != 1 || warmedKeys[0] != "hot" {
		t.Fatalf("warmed %v", warmedKeys)
	}
	mu.Unlock()
	// Second sweep: everything warm, nothing to do.
	if n := pw.Sweep(context.Background()); n != 0 {
		t.Fatalf("idempotent sweep warmed %d", n)
	}
	sweeps, warmed, yields, errs := pw.Stats()
	if sweeps != 2 || warmed != 1 || yields != 0 || errs != 0 {
		t.Fatalf("stats = %d %d %d %d", sweeps, warmed, yields, errs)
	}
}

func TestPrewarmerSkipsBusyPool(t *testing.T) {
	pop := NewPopularity(0, 0, nil)
	pop.Touch("k", "src")
	sched := NewScheduler(Config{Capacity: 1})
	free := occupy(t, sched, 1)
	defer free()
	pw := &Prewarmer{
		Sched: sched,
		Pop:   pop,
		Warm: func(ctx context.Context, key, source string) error {
			t.Error("warm ran on a busy pool")
			return nil
		},
	}
	if n := pw.Sweep(context.Background()); n != 0 {
		t.Fatalf("busy sweep warmed %d", n)
	}
}

func TestPrewarmerYieldStopsSweep(t *testing.T) {
	pop := NewPopularity(0, 0, nil)
	pop.Touch("k1", "s")
	pop.Touch("k2", "s")
	sched := NewScheduler(Config{Capacity: 1})
	pw := &Prewarmer{
		Sched: sched,
		Pop:   pop,
		Warm: func(ctx context.Context, key, source string) error {
			// Simulate a real arrival mid-warm: queue a request, which
			// revokes this lease, then honor the cancellation.
			done := make(chan error, 1)
			go func() {
				rel, err := sched.Acquire(context.Background(), Interactive)
				if err == nil {
					rel()
				}
				done <- err
			}()
			<-ctx.Done()
			go func() { <-done }()
			return ctx.Err()
		},
	}
	if n := pw.Sweep(context.Background()); n != 0 {
		t.Fatalf("yielding sweep warmed %d", n)
	}
	_, _, yields, errs := pw.Stats()
	if yields != 1 || errs != 0 {
		t.Fatalf("yields=%d errs=%d, want 1, 0", yields, errs)
	}
}

func TestPrewarmerErrorCounted(t *testing.T) {
	pop := NewPopularity(0, 0, nil)
	pop.Touch("bad", "s")
	pw := &Prewarmer{
		Sched: NewScheduler(Config{Capacity: 1}),
		Pop:   pop,
		Warm: func(ctx context.Context, key, source string) error {
			return errors.New("boom")
		},
	}
	if n := pw.Sweep(context.Background()); n != 0 {
		t.Fatalf("failing sweep warmed %d", n)
	}
	_, _, yields, errs := pw.Stats()
	if errs != 1 || yields != 0 {
		t.Fatalf("errs=%d yields=%d, want 1, 0", errs, yields)
	}
}
