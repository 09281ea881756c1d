package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/models"
)

// TestNewCompilerRejectsBadTargets pins the constructor contract: no nil
// target, no unfrozen target, no invalid config.
func TestNewCompilerRejectsBadTargets(t *testing.T) {
	if _, err := NewCompiler(nil, Config{}); err == nil {
		t.Error("nil target accepted")
	}
	target, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCompiler(target, Config{Jobs: -1}); err == nil {
		t.Error("invalid config accepted")
	}
	c, err := NewCompiler(target, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Target() != target {
		t.Error("Target() does not return the constructed target")
	}
}

// TestCompilerParallelByteIdentical is the acceptance test for the pooled
// hot path: 32 goroutines compile through ONE Compiler — recycling warm
// sessions from its pool — across two processor models, and every word
// sequence must equal a serial fresh-session baseline bit for bit.  Run
// under -race in CI; multiple rounds per worker make session reuse (a
// worker picking up another worker's warmed memo) all but certain.
func TestCompilerParallelByteIdentical(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(n)
	}
	c25, ok := models.Get("tms320c25")
	if !ok {
		t.Fatal("tms320c25 model missing")
	}
	cases := []struct {
		name, mdl string
		srcs      []string
	}{
		{"micro16", micro16, []string{
			"int a = 2; int b = 3; int y; y = a + b;",
			"int a = 7; int b = 2; int c = 1; int y; y = (a - b) + c;",
			"int a = 4; int y; y = a + a;",
			"int a = 9; int b = 5; int y; int z; y = a - b; z = y + a;",
		}},
		{"tms320c25", c25, []string{
			"int a = 3; int b = 4; int y; y = a * b;",
			"int a = 2; int b = 5; int c = 7; int y; y = a * b + c;",
			"int a = 6; int b = 2; int y; int z; y = a - b; z = y * a;",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			target, err := RetargetContext(context.Background(), tc.mdl, RetargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Serial baseline on fresh sessions: a new Compiler per
			// compile, so no pooled session is in play.
			ref := make([][]uint64, len(tc.srcs))
			for i, src := range tc.srcs {
				res, err := newCompiler(t, target).CompileSource(context.Background(), src)
				if err != nil {
					t.Fatalf("serial reference %d: %v", i, err)
				}
				ref[i] = res.Words()
			}

			comp, err := NewCompiler(target, Config{})
			if err != nil {
				t.Fatal(err)
			}
			const workers = 32
			const rounds = 6
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						i := (w + r) % len(tc.srcs)
						res, err := comp.CompileSource(context.Background(), tc.srcs[i])
						if err != nil {
							errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
							return
						}
						got := res.Words()
						if len(got) != len(ref[i]) {
							errs <- fmt.Errorf("worker %d program %d: %d words, serial produced %d",
								w, i, len(got), len(ref[i]))
							return
						}
						for k := range got {
							if got[k] != ref[i][k] {
								errs <- fmt.Errorf("worker %d program %d word %d: %#x != serial %#x",
									w, i, k, got[k], ref[i][k])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestCompilerSessionPoolRecycles checks the session borrow/return API the
// control-flow driver uses: a released session comes back warm, and the
// pool never hands the same session to two concurrent borrowers.
func TestCompilerSessionPoolRecycles(t *testing.T) {
	target, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompiler(target, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := comp.AcquireSession()
	s2 := comp.AcquireSession()
	if s1 == nil || s2 == nil {
		t.Fatal("AcquireSession returned nil")
	}
	if s1 == s2 {
		t.Fatal("two concurrent borrowers got the same session")
	}
	comp.ReleaseSession(s1)
	comp.ReleaseSession(s2)
	comp.ReleaseSession(nil) // must not panic or pool a nil
	if got := comp.AcquireSession(); got == nil {
		t.Fatal("pool drained after release")
	}
}

// TestSessionSurvivesGC checks that an idle session outlives garbage
// collection: a released session is the next one acquired even after two
// collections, which empty a sync.Pool.
func TestSessionSurvivesGC(t *testing.T) {
	target, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompiler(target, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := comp.AcquireSession()
	comp.ReleaseSession(s)
	runtime.GC()
	runtime.GC()
	if got := comp.AcquireSession(); got != s {
		t.Fatal("the released session did not survive two collections")
	}
}
