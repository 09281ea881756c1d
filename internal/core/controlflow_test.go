package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/ir/irtest"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/rtl"
)

var (
	brancherOnce sync.Once
	brancherTg   *core.Target
	brancherErr  error
)

func brancher(t *testing.T) *core.Target {
	t.Helper()
	brancherOnce.Do(func() {
		brancherTg, brancherErr = core.RetargetContext(context.Background(), models.BrancherMDL, core.RetargetOptions{})
	})
	if brancherErr != nil {
		t.Fatal(brancherErr)
	}
	return brancherTg
}

// newCompiler builds a compile handle for tg.  A new handle's session
// pool is empty, so its first compile runs on a fresh encoding session.
func newCompiler(t testing.TB, tg *core.Target, cfg core.Config) *core.Compiler {
	t.Helper()
	c, err := core.NewCompiler(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// compileCF compiles RecC source for the brancher and checks that it took
// the control-flow path.
func compileCF(t *testing.T, src string, cfg core.Config) *core.CompileResult {
	t.Helper()
	res, err := newCompiler(t, brancher(t), cfg).CompileSource(context.Background(), src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.CFG == nil {
		t.Fatal("program compiled as straight-line code")
	}
	return res
}

// compileRun compiles a control-flow program, runs it on the netlist
// simulator, checks the CFG oracle, and returns the environment.
func compileRun(t *testing.T, src string) (ir.Env, *core.CompileResult) {
	t.Helper()
	res := compileCF(t, src, core.Config{})
	target := brancher(t)
	if err := target.CheckAgainstOracle(res); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	env, err := target.Execute(res)
	if err != nil {
		t.Fatal(err)
	}
	return env, res
}

func TestJumpTemplatesExtracted(t *testing.T) {
	target := brancher(t)
	seenUncond, seenCond := false, false
	for _, tpl := range target.Base.Templates {
		if tpl.Dest != "pc.r" {
			continue
		}
		s := tpl.String()
		if strings.Contains(s, "IW[7:0]") {
			if len(tpl.Cond.Dynamic) == 0 {
				seenUncond = true
			} else {
				seenCond = true
			}
		}
	}
	if !seenUncond || !seenCond {
		t.Fatalf("jump templates missing: uncond=%v cond=%v", seenUncond, seenCond)
	}
}

func TestIfTaken(t *testing.T) {
	env, _ := compileRun(t, `
int a = 5; int b = 3; int x;
void main() {
  x = 0;
  if (a > b) { x = 1; }
}
`)
	if env["x"][0] != 1 {
		t.Errorf("x = %d", env["x"][0])
	}
}

func TestIfNotTaken(t *testing.T) {
	env, _ := compileRun(t, `
int a = 2; int b = 3; int x;
void main() {
  x = 0;
  if (a == b) { x = 1; }
}
`)
	if env["x"][0] != 0 {
		t.Errorf("x = %d", env["x"][0])
	}
}

func TestIfElseChain(t *testing.T) {
	env, _ := compileRun(t, `
int a = 7; int kind;
void main() {
  if (a < 5) { kind = 1; }
  else if (a < 10) { kind = 2; }
  else { kind = 3; }
}
`)
	if env["kind"][0] != 2 {
		t.Errorf("kind = %d", env["kind"][0])
	}
}

func TestWhileLoop(t *testing.T) {
	// Real runtime loop: sum 1..10 without unrolling.
	env, res := compileRun(t, `
int s; int i;
void main() {
  s = 0;
  i = 1;
  while (i <= 10) {
    s = s + i;
    i = i + 1;
  }
}
`)
	if env["s"][0] != 55 {
		t.Errorf("s = %d", env["s"][0])
	}
	// The loop is NOT unrolled: code is much shorter than 10 iterations'
	// worth of straight-line code.
	if res.Code.Len() > 25 {
		t.Errorf("loop seems unrolled: %d words", res.Code.Len())
	}
}

// countOp counts the instructions of res.Seq whose template computes op.
func countOp(res *core.CompileResult, op rtl.Op) int {
	n := 0
	for _, in := range res.Seq.Instrs {
		if hasOp(in.Template.Exprs(), in.Template.Src, op) {
			n++
		}
	}
	return n
}

// hasOp reports whether tree h of s applies op anywhere.
func hasOp(s *rtl.Store, h rtl.ExprID, op rtl.Op) bool {
	if e := s.Expr(h); e.Kind == rtl.OpApp && e.Op == op {
		return true
	}
	for _, k := range s.Kids(h) {
		if hasOp(s, k, op) {
			return true
		}
	}
	return false
}

// TestForLoopAsRealLoop: in a program with control flow a counted loop
// becomes a genuine loop, so its body's multiply is emitted once rather
// than once per iteration.
func TestForLoopAsRealLoop(t *testing.T) {
	env, res := compileRun(t, `
int fact; int big;
void main() {
  fact = 1;
  for (i = 1; i < 7; i++) {
    fact = fact * i;
  }
  if (fact > 100) { big = 1; }
}
`)
	if env["fact"][0] != 720 || env["big"][0] != 1 {
		t.Errorf("fact = %d, big = %d", env["fact"][0], env["big"][0])
	}
	if n := countOp(res, rtl.OpMul); n != 1 {
		t.Errorf("loop body's multiply emitted %d times, want 1 (loop unrolled?)", n)
	}
}

func TestNestedLoops(t *testing.T) {
	env, _ := compileRun(t, `
int acc; int odd;
void main() {
  acc = 0;
  for (i = 0; i < 5; i++) {
    for (j = 0; j < 4; j++) {
      acc = acc + 1;
    }
  }
  if ((acc & 1) == 1) { odd = 1; }
}
`)
	if env["acc"][0] != 20 || env["odd"][0] != 0 {
		t.Errorf("acc = %d, odd = %d", env["acc"][0], env["odd"][0])
	}
}

func TestWhileWithComputedBound(t *testing.T) {
	// Collatz-ish iteration: data-dependent trip count, impossible to
	// unroll at compile time.
	env, _ := compileRun(t, `
int n = 27; int steps;
void main() {
  steps = 0;
  while (n != 1) {
    if ((n & 1) == 1) { n = 3*n + 1; }
    else { n = n >> 1; }
    steps = steps + 1;
  }
}
`)
	if env["steps"][0] != 111 {
		t.Errorf("steps = %d", env["steps"][0])
	}
}

func TestTruthyCondition(t *testing.T) {
	// Non-comparison condition coerced to != 0.
	env, _ := compileRun(t, `
int a = 4; int x;
void main() {
  x = 0;
  while (a) {
    x = x + a;
    a = a - 1;
  }
}
`)
	if env["x"][0] != 10 {
		t.Errorf("x = %d", env["x"][0])
	}
}

func TestArrayLoopRuntimeIndexRejectedGracefully(t *testing.T) {
	// The brancher has no indexed addressing: an array index known only
	// at run time must produce a diagnostic, not wrong code.
	_, err := newCompiler(t, brancher(t), core.Config{}).CompileSource(context.Background(), `
int a[4] = {1,2,3,4};
int s; int i;
void main() {
  s = 0;
  i = 0;
  while (i < 4) { s = s + a[i]; i = i + 1; }
}
`)
	if err == nil {
		t.Error("runtime-indexed array access compiled for a machine without indexed addressing")
	}
}

// TestInfiniteLoopDetected: a run that never reaches the exit address
// stops at the caller's deadline.
func TestInfiniteLoopDetected(t *testing.T) {
	res := compileCF(t, `
int x;
void main() {
  x = 0;
  while (x == 0) { x = 0; }
}
`, core.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := brancher(t).ExecuteContext(ctx, res)
	var be *diag.BudgetError
	if !errors.As(err, &be) {
		t.Errorf("non-terminating loop not stopped by the deadline: %v", err)
	}
}

func TestCompactionWithinBlocks(t *testing.T) {
	const src = `
int a = 1; int b = 2; int x; int y; int i;
void main() {
  i = 0;
  while (i < 3) {
    x = a + 10;
    y = b + 20;
    i = i + 1;
  }
}
`
	packed := compileCF(t, src, core.Config{})
	plain := compileCF(t, src, core.Config{NoCompaction: true})
	if packed.Code.Len() > plain.Code.Len() {
		t.Errorf("compaction grew code: %d > %d", packed.Code.Len(), plain.Code.Len())
	}
	for _, res := range []*core.CompileResult{packed, plain} {
		if err := brancher(t).CheckAgainstOracle(res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoPeepholeWithinBlocks: the peephole pass runs per block unless
// NoPeephole is set; the unoptimized program is longer and still correct.
func TestNoPeepholeWithinBlocks(t *testing.T) {
	const src = `
int a = 1; int b; int c;
void main() {
  b = a + 1;
  c = b + 2;
  while (c != 0) { c = c - 1; }
}
`
	opt := compileCF(t, src, core.Config{})
	raw := compileCF(t, src, core.Config{NoPeephole: true})
	if raw.Code.Len() <= opt.Code.Len() {
		t.Errorf("NoPeephole gave %d words, want more than the optimized %d", raw.Code.Len(), opt.Code.Len())
	}
	for _, res := range []*core.CompileResult{opt, raw} {
		if err := brancher(t).CheckAgainstOracle(res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoJumpTemplatesDiagnostic(t *testing.T) {
	// The micro16-family machines have a plain incrementing PC: a program
	// with control flow must be refused with a clear error.
	mdl, _ := models.Get("tms320c25")
	c25, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = newCompiler(t, c25, core.Config{}).CompileSource(context.Background(),
		`int x; void main() { x = 0; while (x < 3) { x = x + 1; } }`)
	if err == nil || !strings.Contains(err.Error(), "jump template") {
		t.Errorf("err = %v", err)
	}
}

// TestJumpTargetOutOfField: a jump to a word the target field cannot
// address is refused, naming the field width, instead of being encoded
// with the address's low bits.  The brancher's jump field is 8 bits wide;
// the loop after 100 three-word statements starts past word 255.
func TestJumpTargetOutOfField(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&src, "int y%d;\n", i)
	}
	src.WriteString("int n = 2;\nvoid main() {\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&src, "  y%d = y%d + 1;\n", i, i)
	}
	src.WriteString("  while (n != 0) { n = n - 1; }\n}\n")
	_, err := newCompiler(t, brancher(t), core.Config{}).CompileSource(context.Background(), src.String())
	if err == nil || !strings.Contains(err.Error(), "8-bit") {
		t.Fatalf("err = %v, want a jump target that does not fit the 8-bit field", err)
	}
}

// TestControlFlowCompileObserved: a control-flow compile feeds the same
// instruments as a straight-line one — one compile counted, one
// observation per stage histogram, and the five stage events on its
// compile span.
func TestControlFlowCompileObserved(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	c := newCompiler(t, brancher(t), core.Config{Obs: obs.NewScope(reg, tr)})
	res, err := c.CompileSource(context.Background(), irtest.Collatz)
	if err != nil {
		t.Fatal(err)
	}
	if res.CFG == nil || len(res.CFG.Blocks) < 2 {
		t.Fatal("program compiled as straight-line code")
	}
	if n := reg.Counter("record_core_compiles_total", "").Value(); n != 1 {
		t.Errorf("record_core_compiles_total = %d, want 1", n)
	}
	stages := []string{"bind", "select", "peephole", "compact", "encode"}
	phases := reg.HistogramVec("record_core_phase_seconds", "", nil, "phase")
	for _, s := range stages {
		if n := phases.With(s).Count(); n != 1 {
			t.Errorf("record_core_phase_seconds{phase=%q} has %d observations, want 1", s, n)
		}
	}
	var names []string
	compileTid := -1
	for _, sp := range tr.Snapshot() {
		if sp.Name == "compile" {
			compileTid = sp.Tid
		} else if sp.Tid != compileTid {
			continue
		}
		names = append(names, sp.Name)
	}
	if want := append([]string{"compile"}, stages...); !slices.Equal(names, want) {
		t.Errorf("trace %v, want %v", names, want)
	}
}

// TestPropRandomControlFlow fuzzes the whole branch pipeline: random
// structured programs compile for the brancher and the simulated execution
// matches the CFG interpreter.
func TestPropRandomControlFlow(t *testing.T) {
	target := brancher(t)
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 80; trial++ {
		p := irtest.RandomCF(rng)
		res, err := newCompiler(t, target, core.Config{}).CompileProgramOpts(context.Background(), p, core.CompileOptions{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		if err := target.CheckAgainstOracle(res); err != nil {
			t.Fatalf("trial %d: %v\nblocks=%d words=%d\n%s",
				trial, err, len(res.CFG.Blocks), res.Code.Len(), target.Listing(res))
		}
	}
}

// TestPropRandomControlFlowNoCompaction isolates per-block compaction.
func TestPropRandomControlFlowNoCompaction(t *testing.T) {
	target := brancher(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		p := irtest.RandomCF(rng)
		res, err := newCompiler(t, target, core.Config{}).CompileProgramOpts(context.Background(), p, core.CompileOptions{NoCompaction: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := target.CheckAgainstOracle(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

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
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4242)) // TestPropRandomControlFlow's corpus
	progs := make([]*ir.Program, 10)
	ref := make([][]uint64, len(progs))
	for i := range progs {
		progs[i] = irtest.RandomCF(rng)
		res, err := newCompiler(t, target, core.Config{}).CompileProgramOpts(ctx, progs[i], core.CompileOptions{})
		if err != nil {
			t.Fatalf("fresh reference %d: %v", i, err)
		}
		ref[i] = res.Words()
	}
	const straight = "int a = 2; int b = 3; int y; y = (a + b) - 1;"
	straightRef, err := newCompiler(t, target, core.Config{}).CompileSource(ctx, straight)
	if err != nil {
		t.Fatal(err)
	}

	comp := newCompiler(t, target, core.Config{})
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
				res, err := comp.CompileProgramOpts(ctx, progs[i], core.CompileOptions{})
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if !slices.Equal(res.Words(), ref[i]) {
					errs <- fmt.Errorf("worker %d program %d: pooled words %x != fresh %x", w, i, res.Words(), ref[i])
					return
				}
				if err := target.CheckAgainstOracle(res); err != nil {
					errs <- fmt.Errorf("worker %d program %d: %v", w, i, err)
					return
				}
				sl, err := comp.CompileSource(ctx, straight)
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
