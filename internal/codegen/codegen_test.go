package codegen_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/rtl"
)

// The micro16-style machine from the core tests has a single accumulator,
// which exercises scheduling and spilling hardest.
const oneAcc = `
PROCESSOR oneacc;
CONST WORD = 16;

MODULE Alu (IN a: WORD; IN b: WORD; IN op: 3; OUT y: WORD);
BEGIN
  y <- CASE op OF 0: a + b; 1: a - b; 2: a & b; 3: a | b;
                  4: a ^ b; 5: b; 6: a * b; 7: -b; END;
END;

MODULE BMux (IN m: WORD; IN imm: WORD; IN s: 1; OUT y: WORD);
BEGIN
  y <- CASE s OF 0: m; 1: imm; END;
END;

MODULE Reg (IN d: WORD; IN ld: 1; OUT q: WORD);
VAR r: WORD;
BEGIN q <- r; AT ld == 1 DO r <- d; END;

MODULE Ram (IN a: 8; IN d: WORD; IN w: 1; OUT q: WORD);
VAR m: WORD [256];
BEGIN q <- m[a]; AT w == 1 DO m[a] <- d; END;

MODULE Rom (IN a: 8; OUT q: 32);
VAR m: 32 [256];
BEGIN q <- m[a]; END;

MODULE Inc (IN a: 8; OUT y: 8);
BEGIN y <- a + 1; END;

MODULE PcReg (IN d: 8; OUT q: 8);
VAR r: 8;
BEGIN q <- r; r <- d; END;

PARTS
  alu  : Alu;
  bmux : BMux;
  acc  : Reg;
  ram  : Ram;
  imem : Rom INSTRUCTION;
  pc   : PcReg PC;
  pinc : Inc;

CONNECT
  alu.a    <- acc.q;
  alu.b    <- bmux.y;
  alu.op   <- imem.q[31:29];
  bmux.m   <- ram.q;
  bmux.imm <- imem.q[15:0];
  bmux.s   <- imem.q[28];
  acc.d    <- alu.y;
  acc.ld   <- imem.q[27];
  ram.a    <- imem.q[7:0];
  ram.d    <- acc.q;
  ram.w    <- imem.q[26];
  imem.a   <- pc.q;
  pinc.a   <- pc.q;
  pc.d     <- pinc.y;
END.
`

func retarget(t *testing.T, mdl string) *core.Target {
	t.Helper()
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
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

func TestSpillThroughMemory(t *testing.T) {
	tg := retarget(t, oneAcc)
	// Both multiplier operands are computed: the ET must split through a
	// scratch cell.
	res, err := newCompiler(t, tg).CompileSourceOpts(context.Background(), `
int a = 3; int b = 4; int c = 5; int d = 6;
int x;
x = (a + b) * (c + d);
`, core.CompileOptions{NoPeephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Spills == 0 {
		t.Error("no spills recorded")
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatal(err)
	}
	// The spill cell must be in the scratch region.
	usedScratch := false
	for _, in := range res.Seq.Instrs {
		d := in.Def()
		if d.Storage == "ram.m" && d.AddrKnown && int(d.Addr) >= res.Binding.ScratchBase {
			usedScratch = true
		}
	}
	if !usedScratch {
		t.Error("no store into the scratch region")
	}
}

func TestDeepNestingStaysCorrect(t *testing.T) {
	tg := retarget(t, oneAcc)
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `
int a = 1; int b = 2; int c = 3; int d = 4;
int e = 5; int f = 6; int g = 7; int h = 8;
int x;
x = ((a + b) * (c + d)) ^ ((e - f) * (g + h));
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatalf("%v\n%s", err, res.Seq)
	}
	if res.Stats.Spills < 2 {
		t.Errorf("expected several spills, got %d", res.Stats.Spills)
	}
}

func TestEvaluationOrderAvoidsSpill(t *testing.T) {
	tg := retarget(t, oneAcc)
	// (a+b) + c: right operand is a leaf, so evaluating left-first into
	// the accumulator needs no spill at all.
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `
int a = 1; int b = 2; int c = 3;
int x;
x = (a + b) + c;
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Spills != 0 {
		t.Errorf("unnecessary spills: %d\n%s", res.Stats.Spills, res.Seq)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatal(err)
	}
}

func TestSharedSubtreeElision(t *testing.T) {
	mdl, _ := models.Get("tms320c25")
	tg := retarget(t, mdl)
	// t*t: both multiplier operands are the same subtree; on the c25 the
	// square needs t loaded once.
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `
int v = 9;
int sq;
sq = v * v;
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatal(err)
	}
	tloads := 0
	for _, in := range res.Seq.Instrs {
		if in.Template.Dest == "t.r" {
			tloads++
		}
	}
	if tloads != 1 {
		t.Errorf("v*v loaded T %d times:\n%s", tloads, res.Seq)
	}
}

func TestFieldConsistencyForcesSplit(t *testing.T) {
	tg := retarget(t, oneAcc)
	// a & (a+1) with a nonlinear immediate would be wrong; here we check
	// two DIFFERENT immediates sharing the field force separate words.
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `
int x;
x = 100 + 200;
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatal(err)
	}
	// The frontend folds 100+200, so this compiles to a single load of 300.
	if res.SeqLen() > 2 {
		t.Errorf("folded constant took %d RTs", res.SeqLen())
	}
}

func TestCommentsCarrySource(t *testing.T) {
	tg := retarget(t, oneAcc)
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `int x; x = 5;`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range res.Seq.Instrs {
		if strings.Contains(in.Comment, "x = 5;") {
			found = true
		}
	}
	if !found {
		t.Error("source comment lost")
	}
}

func TestTwosComplementFallbackWidths(t *testing.T) {
	// Machines without subtracters (manocpu) compute a-b via ~b+1; check
	// the result is numerically right across sign boundaries.
	mdl, _ := models.Get("manocpu")
	tg := retarget(t, mdl)
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `
int a = 5; int b = 12;
int x; int y;
x = a - b;
y = b - a;
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatal(err)
	}
	env, err := tg.Execute(res)
	if err != nil {
		t.Fatal(err)
	}
	if env["x"][0] != -7 || env["y"][0] != 7 {
		t.Errorf("x=%d y=%d", env["x"][0], env["y"][0])
	}
	_ = rtl.OpSub // document the op under test
}
