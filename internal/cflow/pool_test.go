package cflow_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/cflow"
	"repro/internal/ir"
)

// TestPooledCompileByteIdentical compiles control-flow programs
// concurrently through one Compiler for several rounds, so most compiles
// run on a pooled session that earlier compiles (of other programs, and of
// a straight-line program mixed in) have already warmed.  Every compile
// must produce the words a fresh session produces — the reference is one
// new Compiler per program — and pass the CFG oracle.  GOMAXPROCS is
// forced above 1 so -race actually interleaves.
func TestPooledCompileByteIdentical(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(n)
	}
	target := brancher(t)
	rng := rand.New(rand.NewSource(4242)) // TestPropRandomControlFlow's corpus
	progs := make([]*ir.Program, 10)
	ref := make([][]uint64, len(progs))
	for i := range progs {
		progs[i] = randomCFProgram(rng)
		res, err := cflow.Compile(newCompiler(t, target), progs[i], cflow.Options{})
		if err != nil {
			t.Fatalf("fresh reference %d: %v", i, err)
		}
		ref[i] = res.Words()
	}
	const straight = "int a = 2; int b = 3; int y; y = (a + b) - 1;"
	straightRef, err := newCompiler(t, target).CompileSource(context.Background(), straight)
	if err != nil {
		t.Fatal(err)
	}

	comp := newCompiler(t, target)
	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(progs)
				res, err := cflow.Compile(comp, progs[i], cflow.Options{})
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if !slices.Equal(res.Words(), ref[i]) {
					errs <- fmt.Errorf("worker %d program %d: pooled words %x != fresh %x", w, i, res.Words(), ref[i])
					return
				}
				if err := cflow.CheckAgainstOracle(target, res, cflow.Options{}); err != nil {
					errs <- fmt.Errorf("worker %d program %d: %v", w, i, err)
					return
				}
				sl, err := comp.CompileSource(context.Background(), straight)
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d straight-line: %v", w, r, err)
					return
				}
				if !slices.Equal(sl.Words(), straightRef.Words()) {
					errs <- fmt.Errorf("worker %d straight-line: pooled words %x != fresh %x", w, sl.Words(), straightRef.Words())
					return
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
