package cflow_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/cflow"
	"repro/internal/cfront"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/models"
)

var (
	once sync.Once
	tg   *core.Target
	tgE  error
)

func brancher(t *testing.T) *core.Target {
	t.Helper()
	once.Do(func() {
		tg, tgE = core.RetargetContext(context.Background(), models.BrancherMDL, core.RetargetOptions{})
	})
	if tgE != nil {
		t.Fatal(tgE)
	}
	return tg
}

// newCompiler builds a compile handle for tg.  A new handle's session
// pool is empty, so its first compile runs on a fresh encoding session.
func newCompiler(t testing.TB, tg *core.Target) *core.Compiler {
	t.Helper()
	c, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// compileRun compiles a control-flow program, runs it on the netlist
// simulator, checks the CFG oracle, and returns the environment.
func compileRun(t *testing.T, src string) (ir.Env, *cflow.Result) {
	t.Helper()
	target := brancher(t)
	prog, err := cfront.Parse(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	res, err := cflow.Compile(newCompiler(t, target), prog, cflow.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := cflow.CheckAgainstOracle(target, res, cflow.Options{}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	env, err := cflow.Execute(target, res, cflow.Options{})
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

func TestForLoopAsRealLoop(t *testing.T) {
	env, res := compileRun(t, `
int fact;
void main() {
  fact = 1;
  for (i = 1; i < 7; i++) {
    fact = fact * i;
  }
}
`)
	if env["fact"][0] != 720 {
		t.Errorf("fact = %d", env["fact"][0])
	}
	if res.Code.Len() > 20 {
		t.Errorf("for loop seems unrolled: %d words", res.Code.Len())
	}
}

func TestNestedLoops(t *testing.T) {
	env, _ := compileRun(t, `
int acc;
void main() {
  acc = 0;
  for (i = 0; i < 5; i++) {
    for (j = 0; j < 4; j++) {
      acc = acc + 1;
    }
  }
}
`)
	if env["acc"][0] != 20 {
		t.Errorf("acc = %d", env["acc"][0])
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
	// The brancher has no indexed addressing: a runtime array index must
	// produce a diagnostic, not wrong code.
	target := brancher(t)
	prog, err := cfront.Parse(`
int a[4] = {1,2,3,4};
int s;
void main() {
  s = 0;
  for (i = 0; i < 4; i++) { s = s + a[i]; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cflow.Compile(newCompiler(t, target), prog, cflow.Options{}); err == nil {
		t.Error("runtime-indexed array access compiled for a machine without indexed addressing")
	}
}

func TestInfiniteLoopDetected(t *testing.T) {
	target := brancher(t)
	prog, err := cfront.Parse(`
int x;
void main() {
  x = 0;
  while (x == 0) { x = 0; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cflow.Compile(newCompiler(t, target), prog, cflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cflow.Execute(target, res, cflow.Options{MaxCycles: 5000}); err == nil {
		t.Error("non-terminating loop not detected")
	}
}

func TestCompactionWithinBlocks(t *testing.T) {
	target := brancher(t)
	prog, err := cfront.Parse(`
int a = 1; int b = 2; int x; int y; int i;
void main() {
  i = 0;
  while (i < 3) {
    x = a + 10;
    y = b + 20;
    i = i + 1;
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := cflow.Compile(newCompiler(t, target), prog, cflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cflow.Compile(newCompiler(t, target), prog, cflow.Options{NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Code.Len() > plain.Code.Len() {
		t.Errorf("compaction grew code: %d > %d", packed.Code.Len(), plain.Code.Len())
	}
	if err := cflow.CheckAgainstOracle(target, packed, cflow.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := cflow.CheckAgainstOracle(target, plain, cflow.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestNoPeepholeWithinBlocks: the peephole pass runs per block unless
// NoPeephole is set; the unoptimized program is longer and still correct.
func TestNoPeepholeWithinBlocks(t *testing.T) {
	target := brancher(t)
	prog, err := cfront.Parse(`
int a = 1; int b; int c;
void main() {
  b = a + 1;
  c = b + 2;
  while (c != 0) { c = c - 1; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := cflow.Compile(newCompiler(t, target), prog, cflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cflow.Compile(newCompiler(t, target), prog, cflow.Options{NoPeephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Code.Len() <= opt.Code.Len() {
		t.Errorf("NoPeephole gave %d words, want more than the optimized %d", raw.Code.Len(), opt.Code.Len())
	}
	for _, res := range []*cflow.Result{opt, raw} {
		if err := cflow.CheckAgainstOracle(target, res, cflow.Options{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoJumpTemplatesDiagnostic(t *testing.T) {
	// The micro16-family machines have a plain incrementing PC: cflow must
	// refuse with a clear error.
	mdl, _ := models.Get("tms320c25")
	c25, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfront.Parse(`int x; void main() { x = 0; while (x < 3) { x = x + 1; } }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cflow.Compile(newCompiler(t, c25), prog, cflow.Options{}); err == nil ||
		!strings.Contains(err.Error(), "jump template") {
		t.Errorf("err = %v", err)
	}
}
