package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

func TestCoalescerLeaderAndFollowers(t *testing.T) {
	var c Coalescer
	var calls atomic.Uint64
	gate := make(chan struct{})
	running := make(chan struct{})

	const followers = 5
	results := make(chan string, followers+1)
	shareds := make(chan bool, followers+1)
	launch := func() {
		v, shared, err := c.Do(context.Background(), "k", func() (interface{}, error) {
			calls.Add(1)
			close(running)
			<-gate
			return "payload", nil
		})
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		results <- v.(string)
		shareds <- shared
	}
	go launch()
	<-running // leader is inside fn
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := c.Do(context.Background(), "k", func() (interface{}, error) {
				calls.Add(1)
				return "wrong", nil
			})
			if err != nil {
				t.Errorf("follower: %v", err)
			}
			results <- v.(string)
			shareds <- shared
		}()
	}
	waitFor(t, func() bool { return c.Merged() == followers })
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i := 0; i < followers+1; i++ {
		if v := <-results; v != "payload" {
			t.Fatalf("waiter %d got %q", i, v)
		}
	}
	sharedCount := 0
	for i := 0; i < followers+1; i++ {
		if <-shareds {
			sharedCount++
		}
	}
	if sharedCount != followers {
		t.Fatalf("shared count = %d, want %d", sharedCount, followers)
	}
	if c.Merged() != followers {
		t.Fatalf("Merged = %d, want %d", c.Merged(), followers)
	}

	// The flight is gone: the next call is a fresh leader.
	v, shared, err := c.Do(context.Background(), "k", func() (interface{}, error) { return "fresh", nil })
	if err != nil || shared || v.(string) != "fresh" {
		t.Fatalf("post-flight call: %v %v %v", v, shared, err)
	}
}

func TestCoalescerFollowerContextCancel(t *testing.T) {
	var c Coalescer
	gate := make(chan struct{})
	running := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (interface{}, error) {
			close(running)
			<-gate
			return "late", nil
		})
	}()
	<-running
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := c.Do(ctx, "k", func() (interface{}, error) { return "never", nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: shared=%v err=%v", shared, err)
	}
	close(gate)
}

func TestCoalescerNilAndDistinctKeys(t *testing.T) {
	var nilC *Coalescer
	v, shared, err := nilC.Do(context.Background(), "k", func() (interface{}, error) { return 7, nil })
	if err != nil || shared || v.(int) != 7 {
		t.Fatalf("nil coalescer: %v %v %v", v, shared, err)
	}
	if nilC.Merged() != 0 {
		t.Fatal("nil coalescer counted a merge")
	}
	// Distinct keys never coalesce.
	var c Coalescer
	a, _, _ := c.Do(context.Background(), "a", func() (interface{}, error) { return "a", nil })
	b, _, _ := c.Do(context.Background(), "b", func() (interface{}, error) { return "b", nil })
	if a.(string) != "a" || b.(string) != "b" {
		t.Fatal("distinct keys shared a flight")
	}
}

// TestCoalescerFollowerTakesOverCancelledLeader is the takeover rule: a
// leader whose own context ends mid-call does not hand its cancellation
// to the followers.  One follower runs its own call instead and the rest
// join it; every follower gets that call's result.
func TestCoalescerFollowerTakesOverCancelledLeader(t *testing.T) {
	var c Coalescer
	lctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(lctx, "k", func() (interface{}, error) {
			close(running)
			<-lctx.Done()
			return nil, lctx.Err()
		})
		leaderErr <- err
	}()
	<-running

	const followers = 3
	var calls atomic.Int32
	gate := make(chan struct{})
	type reply struct {
		v      interface{}
		shared bool
		err    error
	}
	replies := make(chan reply, followers)
	for i := 0; i < followers; i++ {
		go func() {
			v, shared, err := c.Do(context.Background(), "k", func() (interface{}, error) {
				calls.Add(1)
				<-gate
				return "taken over", nil
			})
			replies <- reply{v, shared, err}
		}()
	}
	waitFor(t, func() bool { return c.Merged() == followers })
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want its own cancellation", err)
	}
	// One follower runs its own call; the rest join it.
	waitFor(t, func() bool { return calls.Load() == 1 && c.Merged() == 2*followers-1 })
	close(gate)

	shared := 0
	for i := 0; i < followers; i++ {
		r := <-replies
		if r.err != nil || r.v != "taken over" {
			t.Fatalf("follower %d: %v, %v; want the new leader's result", i, r.v, r.err)
		}
		if r.shared {
			shared++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d followers ran their own call, want exactly 1", got)
	}
	if shared != followers-1 {
		t.Fatalf("%d followers replayed the new leader, want %d", shared, followers-1)
	}
}

// TestCoalescerLiveLeaderSharesItsError: a leader whose context is still
// live shares its failure — a work-scoped timeout is a result, not an
// abandoned call.
func TestCoalescerLiveLeaderSharesItsError(t *testing.T) {
	var c Coalescer
	timedOut := errors.New("budget exhausted")
	gate := make(chan struct{})
	running := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (interface{}, error) {
			close(running)
			<-gate
			return nil, timedOut
		})
	}()
	<-running
	done := make(chan error, 1)
	go func() {
		_, shared, err := c.Do(context.Background(), "k", func() (interface{}, error) {
			return "never", nil
		})
		if !shared {
			err = errors.New("follower ran its own call")
		}
		done <- err
	}()
	waitFor(t, func() bool { return c.Merged() == 1 })
	close(gate)
	if err := <-done; err != timedOut {
		t.Fatalf("follower: %v, want the leader's %v", err, timedOut)
	}
}
