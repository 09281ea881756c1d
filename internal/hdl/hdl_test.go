package hdl

import (
	"strings"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/rtl"
)

// tinyModel is a minimal accumulator machine used across frontend tests.
const tinyModel = `
-- tiny accumulator machine
PROCESSOR tiny;

CONST WORD = 8;

MODULE Alu (IN a: WORD; IN b: WORD; IN ctl: 2; OUT y: WORD);
BEGIN
  y <- CASE ctl OF
         0: a + b;
         1: a - b;
         2: a & b;
         ELSE: b;
       END;
END;

MODULE Reg (IN d: WORD; IN ld: 1; OUT q: WORD);
VAR r: WORD;
BEGIN
  q <- r;
  AT ld == 1 DO r <- d;
END;

MODULE Ram (IN a: 4; IN d: WORD; IN w: 1; OUT q: WORD);
VAR m: WORD [16];
BEGIN
  q <- m[a];
  AT w == 1 DO m[a] <- d;
END;

MODULE Rom (IN a: 4; OUT q: 16);
VAR m: 16 [16];
BEGIN
  q <- m[a];
END;

MODULE Inc (IN a: 4; OUT y: 4);
BEGIN
  y <- a + 1;
END;

MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN
  q <- r;
  r <- d;
END;

PARTS
  alu  : Alu;
  acc  : Reg;
  ram  : Ram;
  imem : Rom INSTRUCTION;
  pc   : PcReg PC;
  pinc : Inc;

CONNECT
  alu.a   <- acc.q;
  alu.b   <- ram.q;
  alu.ctl <- imem.q[15:14];
  acc.d   <- alu.y;
  acc.ld  <- imem.q[13];
  ram.a   <- imem.q[3:0];
  ram.d   <- acc.q;
  ram.w   <- imem.q[12];
  imem.a  <- pc.q;
  pinc.a  <- pc.q;
  pc.d    <- pinc.y;
END.
`

func TestLexerBasics(t *testing.T) {
	lx := newLexer("alu <- 0x1F + 0b101 -- comment\n;")
	var kinds []TokKind
	var vals []int64
	for {
		tok, err := lx.next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Kind)
		vals = append(vals, tok.Val)
	}
	want := []TokKind{TokIdent, TokAssign, TokNumber, TokPlus, TokNumber, TokSemi}
	if len(kinds) != len(want) {
		t.Fatalf("token kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if vals[2] != 0x1F || vals[4] != 5 {
		t.Fatalf("number values = %v", vals)
	}
}

func TestLexerOperators(t *testing.T) {
	src := "<= >= == != << >> >>> <- < > = ! ~ ^ | & % / * - +"
	want := []TokKind{TokLe, TokGe, TokEq, TokNe, TokShl, TokShr, TokAshr,
		TokAssign, TokLt, TokGt, TokEqual, TokBang, TokTilde, TokCaret,
		TokPipe, TokAmp, TokPercent, TokSlash, TokStar, TokMinus, TokPlus}
	lx := newLexer(src)
	for i, k := range want {
		tok, err := lx.next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind != k {
			t.Fatalf("token %d = %v, want %v", i, tok.Kind, k)
		}
	}
}

func TestLexerKeywordsCaseInsensitive(t *testing.T) {
	lx := newLexer("processor Module BEGIN end")
	want := []TokKind{TokProcessor, TokModule, TokBegin, TokEnd}
	for _, k := range want {
		tok, err := lx.next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind != k {
			t.Fatalf("got %v, want %v", tok.Kind, k)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	lx := newLexer("@")
	if _, err := lx.next(); err == nil {
		t.Fatal("expected error for '@'")
	}
	lx = newLexer("0x")
	if _, err := lx.next(); err == nil {
		t.Fatal("expected error for bare 0x")
	}
}

func TestParseAndCheckTiny(t *testing.T) {
	m, err := ParseAndCheck(tinyModel)
	if err != nil {
		t.Fatalf("ParseAndCheck: %v", err)
	}
	if m.Name != "tiny" {
		t.Errorf("name = %q", m.Name)
	}
	if len(m.Modules) != 6 || len(m.Parts) != 6 || len(m.Connects) != 11 {
		t.Errorf("counts: modules=%d parts=%d connects=%d",
			len(m.Modules), len(m.Parts), len(m.Connects))
	}
	alu := m.ModuleByName["Alu"]
	if alu == nil {
		t.Fatal("Alu missing")
	}
	if alu.PortByName["a"].Width != 8 || alu.PortByName["ctl"].Width != 2 {
		t.Error("width resolution failed")
	}
	if alu.IsSequential() {
		t.Error("Alu must be combinational")
	}
	ram := m.ModuleByName["Ram"]
	if !ram.IsSequential() || ram.VarByName["m"].Size != 16 {
		t.Error("Ram storage wrong")
	}
}

func TestCaseExprChecked(t *testing.T) {
	m, err := ParseAndCheck(tinyModel)
	if err != nil {
		t.Fatal(err)
	}
	alu := m.ModuleByName["Alu"]
	ce, ok := alu.Stmts[0].RHS.(*CaseExpr)
	if !ok {
		t.Fatalf("Alu behavior is %T, want CaseExpr", alu.Stmts[0].RHS)
	}
	if ce.Width != 8 || len(ce.Alts) != 3 || ce.Else == nil {
		t.Errorf("case: width=%d alts=%d else=%v", ce.Width, len(ce.Alts), ce.Else)
	}
	if ce.Sel.ExprWidth() != 2 {
		t.Errorf("selector width = %d", ce.Sel.ExprWidth())
	}
}

func TestSliceResolution(t *testing.T) {
	m, err := ParseAndCheck(tinyModel)
	if err != nil {
		t.Fatal(err)
	}
	// alu.ctl <- imem.q[15:14]
	var conn *Connect
	for _, c := range m.Connects {
		if c.SinkName() == "alu.ctl" {
			conn = c
		}
	}
	if conn == nil {
		t.Fatal("alu.ctl connect missing")
	}
	ix, ok := conn.Src.(*IndexExpr)
	if !ok {
		t.Fatalf("source is %T", conn.Src)
	}
	if !ix.IsSlice || ix.SliceHi != 15 || ix.SliceLo != 14 || ix.Width != 2 {
		t.Errorf("slice: %+v", ix)
	}
}

// checkFails asserts that the model text fails Check with a message
// containing want.
func checkFails(t *testing.T, src, want string) {
	t.Helper()
	_, err := ParseAndCheck(src)
	if err == nil {
		t.Fatalf("expected error containing %q, got success", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

const miniHeader = `
PROCESSOR p;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
`

func TestCheckErrors(t *testing.T) {
	t.Run("no instruction part", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
MODULE R (IN d: 1; OUT q: 1);
VAR r: 1;
BEGIN q <- r; AT d == 1 DO r <- d; END;
PARTS x : R;
CONNECT x.d <- x.q;
END.`, "exactly one INSTRUCTION part")
	})
	t.Run("unknown module", func(t *testing.T) {
		checkFails(t, miniHeader+`
PARTS imem : Rom INSTRUCTION; y : Nope;
CONNECT imem.a <- imem.q[3:0];
END.`, "unknown module")
	})
	t.Run("undriven input", func(t *testing.T) {
		checkFails(t, miniHeader+`
PARTS imem : Rom INSTRUCTION;
END.`, "never driven")
	})
	t.Run("width mismatch", func(t *testing.T) {
		checkFails(t, miniHeader+`
PARTS imem : Rom INSTRUCTION;
CONNECT imem.a <- imem.q;
END.`, "width mismatch")
	})
	t.Run("double drive", func(t *testing.T) {
		checkFails(t, miniHeader+`
PARTS imem : Rom INSTRUCTION;
CONNECT imem.a <- imem.q[3:0]; imem.a <- imem.q[7:4];
END.`, "driven more than once")
	})
	t.Run("when without bus", func(t *testing.T) {
		checkFails(t, miniHeader+`
PARTS imem : Rom INSTRUCTION;
CONNECT imem.a <- imem.q[3:0] WHEN imem.q[7] == 1;
END.`, "WHEN is only allowed on bus")
	})
	t.Run("bad slice bounds", func(t *testing.T) {
		checkFails(t, miniHeader+`
PARTS imem : Rom INSTRUCTION;
CONNECT imem.a <- imem.q[9:6];
END.`, "out of range")
	})
	t.Run("guard width", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
MODULE R (IN d: 8; OUT q: 8);
VAR r: 8;
BEGIN q <- r; AT d DO r <- d; END;
`+miniPartsRom("R", "x", "x.d <- x.q;"), "guard must be 1 bit")
	})
	t.Run("assign to input", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
MODULE R (IN d: 8; OUT q: 8);
VAR r: 8;
BEGIN q <- r; d <- r; END;
`+miniPartsRom("R", "x", "x.d <- x.q;"), "cannot assign to input")
	})
	t.Run("duplicate case alt", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
MODULE F (IN a: 8; IN s: 1; OUT y: 8);
BEGIN y <- CASE s OF 0: a; 0: a; END; END;
`+miniPartsRom("F", "x", "x.a <- imem.q; x.s <- imem.q[0];"), "duplicate CASE")
	})
	t.Run("unknown ident", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
MODULE F (IN a: 8; OUT y: 8);
BEGIN y <- a + bogus; END;
`+miniPartsRom("F", "x", "x.a <- imem.q;"), "unknown identifier")
	})
	t.Run("literal too wide", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
MODULE F (IN a: 4; OUT y: 4);
BEGIN y <- a + 99; END;
`+miniPartsRom("F", "x", "x.a <- imem.q[3:0];"), "does not fit")
	})
	t.Run("storage size constant too large", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
CONST N = 99999999999;
MODULE M (IN a: 4; OUT y: 8);
VAR m: 8 [N];
BEGIN y <- m[a]; END;
`+miniPartsRom("M", "x", "x.a <- imem.q[3:0];"), `storage size 99999999999 (constant "N") out of range`)
	})
	t.Run("array without index", func(t *testing.T) {
		checkFails(t, `
PROCESSOR p;
MODULE M (IN a: 4; OUT y: 8);
VAR m: 8 [16];
BEGIN y <- m; END;
`+miniPartsRom("M", "x", "x.a <- imem.q[3:0];"), "needs an index")
	})
}

// miniPartsRom appends a Rom instruction part plus one part of module mod
// named name with the given extra connects; imem output is 8 bits wide.
func miniPartsRom(mod, name, connects string) string {
	return `
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
PARTS imem : Rom INSTRUCTION; ` + name + ` : ` + mod + `;
CONNECT imem.a <- imem.q[3:0]; ` + connects + `
END.`
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"MODULE x;",                      // missing PROCESSOR
		"PROCESSOR p",                    // missing semicolon
		"PROCESSOR p; MODULE (IN a:1;);", // missing module name
		"PROCESSOR p; MODULE M (IN a:);", // missing width
		"PROCESSOR p; CONST = 4;",        // missing const name
		"PROCESSOR p; MODULE M (IN a:1); BEGIN a <- ; END;",
		"PROCESSOR p; PARTS x;",    // missing module binding
		"PROCESSOR p; CONNECT x <", // bad connect
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, src)
		}
	}
}

func TestBusParsing(t *testing.T) {
	src := `
PROCESSOR p;
CONST W = 8;
MODULE Rom (IN a: 4; OUT q: W);
VAR m: W [16];
BEGIN q <- m[a]; END;
MODULE Reg (IN d: W; IN ld: 1; OUT q: W);
VAR r: W;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
BUS db : W;
PARTS imem : Rom INSTRUCTION; r0 : Reg; r1 : Reg;
CONNECT
  imem.a <- imem.q[3:0];
  db <- r0.q WHEN imem.q[7] == 1;
  db <- r1.q WHEN imem.q[7] == 0;
  r0.d <- db;
  r1.d <- db;
  r0.ld <- imem.q[6];
  r1.ld <- imem.q[5];
END.
`
	m, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Buses) != 1 || m.Buses[0].Width != 8 {
		t.Fatalf("bus not resolved: %+v", m.Buses)
	}
	busDrivers := 0
	for _, c := range m.Connects {
		if c.SinkPort == "db" && c.SinkPart == "" {
			busDrivers++
			if c.When == nil {
				t.Error("bus driver missing WHEN")
			}
		}
	}
	if busDrivers != 2 {
		t.Fatalf("bus drivers = %d, want 2", busDrivers)
	}
}

func TestPrimaryPorts(t *testing.T) {
	src := `
PROCESSOR p;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
PORT IN  din  : 8;
PORT OUT dout : 8;
PARTS imem : Rom INSTRUCTION;
CONNECT
  imem.a <- din[3:0];
  dout <- imem.q;
END.
`
	m, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ports) != 2 {
		t.Fatalf("ports = %d", len(m.Ports))
	}
	if m.PortByName["din"].Dir != DirIn || m.PortByName["dout"].Dir != DirOut {
		t.Error("port directions wrong")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	src := `
PROCESSOR p;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE F (IN a: 8; IN b: 8; OUT y: 8);
BEGIN y <- a + b * 2 & a; END;
PARTS imem : Rom INSTRUCTION; f : F;
CONNECT imem.a <- imem.q[3:0]; f.a <- imem.q; f.b <- imem.q;
END.
`
	m, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.ModuleByName["F"]
	// & binds loosest: (a + (b*2)) & a
	top, ok := f.Stmts[0].RHS.(*BinExpr)
	if !ok || top.Op != rtl.OpAnd {
		t.Fatalf("top = %v", f.Stmts[0].RHS)
	}
	add, ok := top.X.(*BinExpr)
	if !ok || add.Op != rtl.OpAdd {
		t.Fatalf("left of & = %v", top.X)
	}
	mul, ok := add.Y.(*BinExpr)
	if !ok || mul.Op != rtl.OpMul {
		t.Fatalf("right of + = %v", add.Y)
	}
}

func TestUnaryAndBang(t *testing.T) {
	src := `
PROCESSOR p;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE F (IN a: 8; IN s: 1; OUT y: 8);
BEGIN y <- CASE !s OF 1: -a; 0: ~a; END; END;
PARTS imem : Rom INSTRUCTION; f : F;
CONNECT imem.a <- imem.q[3:0]; f.a <- imem.q; f.s <- imem.q[0];
END.
`
	m, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.ModuleByName["F"]
	ce := f.Stmts[0].RHS.(*CaseExpr)
	sel, ok := ce.Sel.(*BinExpr)
	if !ok || sel.Op != rtl.OpEq {
		t.Fatalf("!s must desugar to ==0, got %v", ce.Sel)
	}
	if _, ok := ce.Alts[0].Body.(*UnExpr); !ok {
		t.Fatalf("-a not unary: %v", ce.Alts[0].Body)
	}
}

func TestMinWidthFitsWidth(t *testing.T) {
	cases := []struct {
		v int64
		w int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {-1, 1}, {-2, 2}, {-128, 8}}
	for _, c := range cases {
		if got := minWidth(c.v); got != c.w {
			t.Errorf("minWidth(%d) = %d, want %d", c.v, got, c.w)
		}
	}
	if !fitsWidth(255, 8) || fitsWidth(256, 8) {
		t.Error("fitsWidth unsigned wrong")
	}
	if !fitsWidth(-128, 8) || fitsWidth(-129, 8) {
		t.Error("fitsWidth signed wrong")
	}
	if !fitsWidth(1<<62, 64) {
		t.Error("fitsWidth 64 wrong")
	}
}

func TestStringRendering(t *testing.T) {
	m, err := ParseAndCheck(tinyModel)
	if err != nil {
		t.Fatal(err)
	}
	alu := m.ModuleByName["Alu"]
	s := alu.Stmts[0].RHS.String()
	for _, want := range []string{"CASE ctl OF", "(a + b)", "ELSE: b"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered case %q missing %q", s, want)
		}
	}
}

// TestParseRecoversMultipleErrors exercises the parser's error recovery: one
// Parse pass reports every syntax error with its position instead of bailing
// at the first, and still returns the declarations that did parse.
func TestParseRecoversMultipleErrors(t *testing.T) {
	src := `PROCESSOR p;
CONST = 4;
MODULE Alu (IN a: 8; IN b: 8; OUT q: 8);
BEGIN
  q <- a + ;
  q <- * b;
  q <- a - b;
END;
PORT OUT res : ;
BUS db : 8;
`
	m, err := Parse(src)
	if err == nil {
		t.Fatal("expected errors")
	}
	errs := Errors(err)
	if len(errs) < 4 {
		t.Fatalf("got %d errors, want >= 4: %v", len(errs), err)
	}
	wantLines := []int{2, 5, 6, 9}
	for i, line := range wantLines {
		if errs[i].Pos.Line != line {
			t.Errorf("error %d at line %d, want %d: %v", i, errs[i].Pos.Line, line, errs[i])
		}
	}
	// The partial model keeps everything that parsed.
	if m == nil {
		t.Fatal("no partial model")
	}
	if len(m.Modules) != 1 || len(m.Modules[0].Stmts) != 1 {
		t.Errorf("partial model modules=%d stmts=%v, want 1 module with 1 good stmt", len(m.Modules), m.Modules)
	}
	if len(m.Buses) != 1 {
		t.Errorf("partial model buses=%d, want the BUS after the bad PORT", len(m.Buses))
	}
}

// TestParseErrorListMessage checks the ErrorList summary format used by
// non-listing consumers.
func TestParseErrorListMessage(t *testing.T) {
	_, err := Parse("PROCESSOR p;\nCONST = 1;\nCONST = 2;\n")
	if err == nil {
		t.Fatal("expected errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "more error") {
		t.Errorf("ErrorList message %q should mention remaining errors", msg)
	}
}

// TestParseFaultpoint verifies the hdl.parse injection site surfaces as a
// positioned error rather than a crash.
func TestParseFaultpoint(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("hdl.parse", faultpoint.Action{Kind: faultpoint.KindError})
	if _, err := Parse("PROCESSOR p;"); err == nil {
		t.Fatal("expected injected error")
	}
	if _, err := Parse("PROCESSOR p;"); err != nil {
		t.Fatalf("fires once: second parse should succeed, got %v", err)
	}
}
