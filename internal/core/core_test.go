package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/burs"
	"repro/internal/ir"
)

// micro16 is a small but complete 16-bit accumulator machine with an
// immediate path, used for end-to-end pipeline tests.
//
// Instruction word (24 bits):
//
//	[23:21] ALU operation   [20] B-operand source (0=memory, 1=immediate)
//	[19]    acc load enable [18] memory write enable
//	[15:0]  immediate       [7:0] memory address (overlaps the immediate)
const micro16 = `
PROCESSOR micro16;
CONST WORD = 16;

MODULE Alu (IN a: WORD; IN b: WORD; IN op: 3; OUT y: WORD);
BEGIN
  y <- CASE op OF
         0: a + b;
         1: a - b;
         2: a & b;
         3: a | b;
         4: a ^ b;
         5: b;
         6: a * b;
         7: -b;
       END;
END;

MODULE BMux (IN mem: WORD; IN imm: WORD; IN s: 1; OUT y: WORD);
BEGIN
  y <- CASE s OF 0: mem; 1: imm; END;
END;

MODULE Reg (IN d: WORD; IN ld: 1; OUT q: WORD);
VAR r: WORD;
BEGIN q <- r; AT ld == 1 DO r <- d; END;

MODULE Ram (IN a: 8; IN d: WORD; IN w: 1; OUT q: WORD);
VAR m: WORD [256];
BEGIN q <- m[a]; AT w == 1 DO m[a] <- d; END;

MODULE Rom (IN a: 8; OUT q: 24);
VAR m: 24 [256];
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
  alu.op   <- imem.q[23:21];
  bmux.mem <- ram.q;
  bmux.imm <- imem.q[15:0];
  bmux.s   <- imem.q[20];
  acc.d    <- alu.y;
  acc.ld   <- imem.q[19];
  ram.a    <- imem.q[7:0];
  ram.d    <- acc.q;
  ram.w    <- imem.q[18];
  imem.a   <- pc.q;
  pinc.a   <- pc.q;
  pc.d     <- pinc.y;
END.
`

func retargetMicro16(t *testing.T) *Target {
	t.Helper()
	tg, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatalf("retarget: %v", err)
	}
	return tg
}

// newCompiler builds a compile handle for tg.  A new handle's session
// pool is empty, so its first compile runs on a fresh encoding session.
func newCompiler(t testing.TB, tg *Target) *Compiler {
	t.Helper()
	c, err := NewCompiler(tg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetargetMicro16(t *testing.T) {
	tg := retargetMicro16(t)
	if tg.Name != "micro16" {
		t.Errorf("name = %q", tg.Name)
	}
	// 8 ALU ops x 2 operand sources + store + pc increment = 18 extracted.
	if tg.Stats.Extracted != 18 {
		t.Errorf("extracted = %d, want 18", tg.Stats.Extracted)
	}
	if tg.Stats.Templates <= tg.Stats.Extracted {
		t.Errorf("extension added nothing: %d -> %d", tg.Stats.Extracted, tg.Stats.Templates)
	}
	if tg.Stats.Total <= 0 {
		t.Error("missing timing")
	}
	if tg.Stats.GrammarSz.RTRules == 0 || tg.Stats.GrammarSz.StartRules == 0 {
		t.Errorf("grammar stats: %+v", tg.Stats.GrammarSz)
	}
}

func TestParserSourceEmission(t *testing.T) {
	tg, err := RetargetContext(context.Background(), micro16, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(burs.EmitGo(tg.Grammar, "micro16parser"), "package micro16parser") {
		t.Errorf("parser source missing package clause")
	}
}

// compileAndCheck compiles RecC source on the target, runs it on the
// netlist simulator, and compares every variable with the IR oracle.
func compileAndCheck(t *testing.T, tg *Target, src string, opts CompileOptions) *CompileResult {
	t.Helper()
	res, err := newCompiler(t, tg).CompileSourceOpts(context.Background(), src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatalf("oracle mismatch: %v\nlisting:\n%s", err, tg.Listing(res))
	}
	return res
}

func TestEndToEndSimpleAssignments(t *testing.T) {
	tg := retargetMicro16(t)
	compileAndCheck(t, tg, `
int a = 7;
int b = 9;
int x;
int y;
x = a + b;
y = x * 3;
`, CompileOptions{})
}

func TestEndToEndImmediates(t *testing.T) {
	tg := retargetMicro16(t)
	res := compileAndCheck(t, tg, `
int x;
int y;
x = 1234;
y = x - 100;
`, CompileOptions{})
	if res.CodeLen() == 0 {
		t.Fatal("no code emitted")
	}
}

func TestEndToEndNegativeValues(t *testing.T) {
	tg := retargetMicro16(t)
	compileAndCheck(t, tg, `
int a = -5;
int b;
int c;
b = -a;
c = a * a - 7;
`, CompileOptions{})
}

func TestEndToEndBitOps(t *testing.T) {
	tg := retargetMicro16(t)
	compileAndCheck(t, tg, `
int a = 0x0F0F;
int b = 0x00FF;
int x; int y; int z;
x = a & b;
y = a | b;
z = a ^ b;
`, CompileOptions{})
}

func TestEndToEndArraysAndLoops(t *testing.T) {
	tg := retargetMicro16(t)
	compileAndCheck(t, tg, `
int a[4] = {1, 2, 3, 4};
int b[4] = {10, 20, 30, 40};
int s;
void main() {
  s = 0;
  for (i = 0; i < 4; i++) {
    s = s + a[i] * b[i];
  }
}
`, CompileOptions{})
}

func TestEndToEndDeepExpression(t *testing.T) {
	tg := retargetMicro16(t)
	// A badly associated tree forcing intermediate results through memory
	// (micro16 has a single accumulator, so the right operand of the outer
	// operation must be spilled).
	res := compileAndCheck(t, tg, `
int a = 3; int b = 4; int c = 5; int d = 6;
int x;
x = (a + b) * (c + d);
`, CompileOptions{})
	if res.Stats.Spills == 0 {
		t.Error("expected at least one spill on a single-accumulator machine")
	}
}

func TestCompactionReducesWordsAndStaysCorrect(t *testing.T) {
	tg := retargetMicro16(t)
	src := `
int a = 1; int b = 2; int x; int y;
x = a + 10;
y = b + 20;
`
	packed := compileAndCheck(t, tg, src, CompileOptions{})
	unpacked := compileAndCheck(t, tg, src, CompileOptions{NoCompaction: true})
	if packed.CodeLen() > unpacked.CodeLen() {
		t.Errorf("compaction grew code: %d > %d", packed.CodeLen(), unpacked.CodeLen())
	}
	if unpacked.CodeLen() != unpacked.SeqLen() {
		t.Errorf("uncompacted code must be one RT per word")
	}
}

func TestCompileErrors(t *testing.T) {
	tg := retargetMicro16(t)
	// Unsupported operator (no divider in micro16).
	if _, err := newCompiler(t, tg).CompileSource(context.Background(), `int a = 8; int b = 2; int x; x = a / b;`); err == nil {
		t.Error("division should be uncoverable on micro16")
	}
	// Frontend error propagates.
	if _, err := newCompiler(t, tg).CompileSource(context.Background(), `int x; x = ;`); err == nil {
		t.Error("syntax error not reported")
	}
	// Memory overflow.
	if _, err := newCompiler(t, tg).CompileSource(context.Background(), `int big[1000]; big[0] = 1;`); err == nil {
		t.Error("oversized frame not reported")
	}
}

func TestListing(t *testing.T) {
	tg := retargetMicro16(t)
	res := compileAndCheck(t, tg, `int x; x = 42;`, CompileOptions{})
	lst := tg.Listing(res)
	if !strings.Contains(lst, "acc.r :=") || !strings.Contains(lst, "ram.m[IW[7:0]] :=") {
		t.Errorf("listing:\n%s", lst)
	}
}

func TestWordsEncoded(t *testing.T) {
	tg := retargetMicro16(t)
	res := compileAndCheck(t, tg, `int x; x = 42;`, CompileOptions{})
	words := res.Words()
	if len(words) < 2 {
		t.Fatalf("words = %d", len(words))
	}
	// First word: load immediate 42 -> acc: op=5 (pass b), s=1, ld=1.
	w := words[0]
	if w&0xFFFF != 42 {
		t.Errorf("imm field = %d", w&0xFFFF)
	}
	if (w>>19)&1 != 1 {
		t.Error("acc.ld not set")
	}
	if (w>>20)&1 != 1 {
		t.Error("imm source not selected")
	}
}

func TestRetargetBadModel(t *testing.T) {
	if _, err := RetargetContext(context.Background(), "PROCESSOR x;", RetargetOptions{}); err == nil {
		t.Error("model without instruction part accepted")
	}
	if _, err := RetargetContext(context.Background(), "garbage", RetargetOptions{}); err == nil {
		t.Error("unparsable model accepted")
	}
}

func TestNoExtensionOption(t *testing.T) {
	tg, err := RetargetContext(context.Background(), micro16, RetargetOptions{NoExtension: true})
	if err != nil {
		t.Fatal(err)
	}
	if tg.Stats.Templates != tg.Stats.Extracted {
		t.Errorf("extension ran despite NoExtension: %d != %d",
			tg.Stats.Templates, tg.Stats.Extracted)
	}
}

func TestCommutativityImprovesCover(t *testing.T) {
	// b + a*b with a single-accumulator: without commuted templates the
	// right-heavy tree costs more (or spills more).
	src := `
int a = 3; int b = 4; int x;
x = b + a * b;
`
	with := retargetMicro16(t)
	resWith := compileAndCheck(t, with, src, CompileOptions{})

	without, err := RetargetContext(context.Background(), micro16, RetargetOptions{NoExtension: true})
	if err != nil {
		t.Fatal(err)
	}
	resWithout, err := newCompiler(t, without).CompileSource(context.Background(), src)
	if err == nil {
		if err := without.CheckAgainstOracle(resWithout); err != nil {
			t.Fatalf("no-extension result wrong: %v", err)
		}
		if resWith.SeqLen() > resWithout.SeqLen() {
			t.Errorf("extension made code longer: %d > %d", resWith.SeqLen(), resWithout.SeqLen())
		}
	}
	_ = resWith
}

func TestExecuteReturnsAllVariables(t *testing.T) {
	tg := retargetMicro16(t)
	res := compileAndCheck(t, tg, `
int a = 2; int b[2] = {5, 6}; int x;
x = a + b[1];
`, CompileOptions{})
	env, err := tg.Execute(res)
	if err != nil {
		t.Fatal(err)
	}
	if env["x"][0] != 8 {
		t.Errorf("x = %d", env["x"][0])
	}
	if len(env["b"]) != 2 || env["b"][0] != 5 {
		t.Errorf("b = %v", env["b"])
	}
	want, _ := ir.Run(res.Program, 16)
	if want["x"][0] != env["x"][0] {
		t.Error("oracle disagrees")
	}
}

// modeMachine gates the ALU function bank on a mode register: mode 0 gives
// add/sub, mode 1 gives and/or.  Compiling an add program must report the
// required mode state, and Execute must preset it.
const modeMachine = `
PROCESSOR mody;
CONST WORD = 16;

MODULE Alu (IN a: WORD; IN b: WORD; IN f: 2; IN mode: 1; OUT y: WORD);
BEGIN
  y <- CASE mode OF
         0: CASE f OF 0: a + b; 1: a - b; ELSE: b; END;
         1: CASE f OF 0: a & b; 1: a | b; ELSE: b; END;
       END;
END;

MODULE BMux (IN m: WORD; IN imm: WORD; IN s: 1; OUT y: WORD);
BEGIN
  y <- CASE s OF 0: m; 1: imm; END;
END;

MODULE Reg (IN d: WORD; IN ld: 1; OUT q: WORD);
VAR r: WORD;
BEGIN q <- r; AT ld == 1 DO r <- d; END;

MODULE Reg1 (IN d: 1; IN ld: 1; OUT q: 1);
VAR r: 1;
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
  mr   : Reg1 MODE;
  ram  : Ram;
  imem : Rom INSTRUCTION;
  pc   : PcReg PC;
  pinc : Inc;

CONNECT
  alu.a    <- acc.q;
  alu.b    <- bmux.y;
  alu.f    <- imem.q[30:29];
  alu.mode <- mr.q;
  bmux.m   <- ram.q;
  bmux.imm <- imem.q[15:0];
  bmux.s   <- imem.q[28];
  acc.d    <- alu.y;
  acc.ld   <- imem.q[27];
  ram.a    <- imem.q[7:0];
  ram.d    <- acc.q;
  ram.w    <- imem.q[26];
  mr.d     <- imem.q[25];
  mr.ld    <- imem.q[24];
  imem.a   <- pc.q;
  pinc.a   <- pc.q;
  pc.d     <- pinc.y;
END.
`

func TestModeRegisterEndToEnd(t *testing.T) {
	tg, err := RetargetContext(context.Background(), modeMachine, RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Arithmetic program: needs mode 0.
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `
int a = 9; int b = 4; int x;
x = a - b;
`)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.ModeReq["mr.r"]; !ok || v != 0 {
		t.Fatalf("mode requirement = %v", res.ModeReq)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatal(err)
	}
	// Logic program: needs mode 1.
	res2, err := newCompiler(t, tg).CompileSource(context.Background(), `
int a = 12; int b = 10; int x;
x = a & b;
`)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res2.ModeReq["mr.r"]; !ok || v != 1 {
		t.Fatalf("mode requirement = %v", res2.ModeReq)
	}
	if err := tg.CheckAgainstOracle(res2); err != nil {
		t.Fatal(err)
	}
	// Mixing both banks in one straight-line program must be diagnosed
	// (this encoder does not insert mode switches).
	if _, err := newCompiler(t, tg).CompileSource(context.Background(), `
int a = 9; int b = 4; int x; int y;
x = a - b;
y = a & b;
`); err == nil {
		t.Error("conflicting mode requirements not diagnosed")
	}
}
