package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/models"
)

// TestRetargetFreezesTarget checks the tentpole invariant: every target
// coming out of Retarget is frozen, and freeze time is measured.
func TestRetargetFreezesTarget(t *testing.T) {
	target, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !target.Frozen() {
		t.Fatal("Retarget returned an unfrozen target")
	}
	if target.Stats.Freeze <= 0 {
		t.Fatalf("freeze phase not measured: %v", target.Stats.Freeze)
	}
}

// TestConcurrentCompileByteIdentical is the acceptance test for lock-free
// parallel compilation: 8 goroutines compile the same programs against one
// frozen target with no external synchronization, each compile on a fresh
// session of its own Compiler, and every word sequence must equal the
// serial reference bit for bit.
func TestConcurrentCompileByteIdentical(t *testing.T) {
	target, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		"int a = 2; int b = 3; int y; y = a + b;",
		"int a = 7; int b = 2; int c = 1; int y; y = (a - b) + c;",
		"int a = 4; int y; y = a + a;",
		"int a = 9; int b = 5; int y; int z; y = a - b; z = y + a;",
	}
	// Serial reference words on fresh sessions, compiled before any
	// concurrency starts.
	ref := make([][]uint64, len(srcs))
	for i, src := range srcs {
		res, err := newCompiler(t, target).CompileSource(context.Background(), src)
		if err != nil {
			t.Fatalf("serial reference %d: %v", i, err)
		}
		ref[i] = res.Words()
	}

	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(srcs)
				res, err := newCompiler(t, target).CompileSource(context.Background(), srcs[i])
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				got := res.Words()
				if len(got) != len(ref[i]) {
					errs <- fmt.Errorf("worker %d program %d: %d words, serial produced %d", w, i, len(got), len(ref[i]))
					return
				}
				for k := range got {
					if got[k] != ref[i][k] {
						errs <- fmt.Errorf("worker %d program %d word %d: %#x != serial %#x", w, i, k, got[k], ref[i][k])
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
}

// randomSource builds a straight-line RecC program from a deterministic
// seed: a few declared scalars combined with +, -, * into assignment
// chains.  Only structure varies; every generated program is compilable on
// both test machines (micro16 has add/sub, tms320c25 adds mul — so the
// operator set is restricted per target).
func randomSource(rng *rand.Rand, ops []string) string {
	nVars := 2 + rng.Intn(3)
	vars := make([]string, nVars)
	src := ""
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
		src += fmt.Sprintf("int v%d = %d; ", i, 1+rng.Intn(9))
	}
	nOut := 1 + rng.Intn(2)
	for i := 0; i < nOut; i++ {
		src += fmt.Sprintf("int y%d; ", i) // declarations precede statements in RecC
	}
	for i := 0; i < nOut; i++ {
		a := vars[rng.Intn(nVars)]
		b := vars[rng.Intn(nVars)]
		op := ops[rng.Intn(len(ops))]
		src += fmt.Sprintf("y%d = %s %s %s; ", i, a, op, b)
	}
	return src
}

// TestFreezePropertyRandomPrograms is the semantics-preservation property
// test: for random programs over micro16 and tms320c25, words compiled
// concurrently against the frozen target equal the serial reference, with
// GOMAXPROCS forced above 1 so -race actually interleaves.
func TestFreezePropertyRandomPrograms(t *testing.T) {
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
		ops       []string
	}{
		{"micro16", micro16, []string{"+", "-"}},
		{"tms320c25", c25, []string{"+", "-", "*"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			target, err := RetargetContext(context.Background(), tc.mdl, RetargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1997)) // paper year; deterministic corpus
			const nPrograms = 12
			srcs := make([]string, nPrograms)
			ref := make([][]uint64, nPrograms)
			for i := range srcs {
				srcs[i] = randomSource(rng, tc.ops)
				res, err := newCompiler(t, target).CompileSource(context.Background(), srcs[i])
				if err != nil {
					t.Fatalf("serial %q: %v", srcs[i], err)
				}
				ref[i] = res.Words()
			}
			var wg sync.WaitGroup
			errs := make(chan error, nPrograms)
			for i := range srcs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := newCompiler(t, target).CompileSource(context.Background(), srcs[i])
					if err != nil {
						errs <- fmt.Errorf("parallel %q: %v", srcs[i], err)
						return
					}
					got := res.Words()
					if fmt.Sprint(got) != fmt.Sprint(ref[i]) {
						errs <- fmt.Errorf("program %q: frozen parallel words %v != serial %v", srcs[i], got, ref[i])
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestCompileContextCancellation checks the satellite API change: a
// canceled context aborts a compile between stages with a budget
// error, not a hang or a panic.
func TestCompileContextCancellation(t *testing.T) {
	target, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = newCompiler(t, target).CompileSource(ctx, "int a = 1; int y; y = a + a;")
	if err == nil {
		t.Fatal("compile with canceled context succeeded")
	}
}

// TestConfigValidate exercises the collapsed driver configuration.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	good := Config{Jobs: 8, MaxErrors: 3, MaxBDDNodes: 1 << 20}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, bad := range map[string]Config{
		"jobs":      {Jobs: -1},
		"timeout":   {Timeout: -1},
		"bddnodes":  {MaxBDDNodes: -2},
		"maxerrors": {MaxErrors: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: negative value accepted", name)
		}
	}
	if (Config{}).JobCount() != 1 || (Config{Jobs: 5}).JobCount() != 5 {
		t.Fatal("JobCount normalization wrong")
	}
	// The views carry the fields across.
	c := Config{NoCompaction: true, NoExtension: true}
	if !c.Compile().NoCompaction {
		t.Fatal("Compile view dropped NoCompaction")
	}
	rep := c.Reporter()
	budget, cancel := c.Budget(context.Background())
	defer cancel()
	ropts := c.Retarget(rep, budget)
	if !ropts.NoExtension || ropts.Reporter != rep || ropts.Budget != budget {
		t.Fatal("Retarget view dropped fields")
	}
}
