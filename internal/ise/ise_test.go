package ise

import (
	"context"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

const tinySrc = `
PROCESSOR tiny;
CONST WORD = 8;

MODULE Alu (IN a: WORD; IN b: WORD; IN ctl: 2; OUT y: WORD);
BEGIN
  y <- CASE ctl OF 0: a + b; 1: a - b; 2: a & b; ELSE: b; END;
END;

MODULE Reg (IN d: WORD; IN ld: 1; OUT q: WORD);
VAR r: WORD;
BEGIN q <- r; AT ld == 1 DO r <- d; END;

MODULE Ram (IN a: 4; IN d: WORD; IN w: 1; OUT q: WORD);
VAR m: WORD [16];
BEGIN q <- m[a]; AT w == 1 DO m[a] <- d; END;

MODULE Rom (IN a: 4; OUT q: 16);
VAR m: 16 [16];
BEGIN q <- m[a]; END;

MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;

MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;

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

func extract(t *testing.T, src string) *Result {
	t.Helper()
	m, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	res, err := Extract(n, Options{})
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return res
}

// find returns the templates whose rendering contains every given fragment.
func find(res *Result, frags ...string) []*rtl.Template {
	var out []*rtl.Template
	for _, tpl := range res.Base.Templates {
		s := tpl.String()
		all := true
		for _, f := range frags {
			if !strings.Contains(s, f) {
				all = false
				break
			}
		}
		if all {
			out = append(out, tpl)
		}
	}
	return out
}

func TestExtractTinyTemplateSet(t *testing.T) {
	res := extract(t, tinySrc)
	if res.Base.Len() != 6 {
		t.Fatalf("templates = %d, want 6:\n%s", res.Base.Len(), res.Base)
	}
	wants := []string{
		"acc.r := (acc.r + ram.m[IW[3:0]])",
		"acc.r := (acc.r - ram.m[IW[3:0]])",
		"acc.r := (acc.r & ram.m[IW[3:0]])",
		"acc.r := ram.m[IW[3:0]]",
		"ram.m[IW[3:0]] := acc.r",
		"pc.r := (pc.r + 1)",
	}
	for _, w := range wants {
		if len(find(res, w)) != 1 {
			t.Errorf("template %q missing or duplicated:\n%s", w, res.Base)
		}
	}
}

func TestExtractTinyConditions(t *testing.T) {
	res := extract(t, tinySrc)
	m := res.Vars.M

	// acc.r := acc.r + ram[...]: requires ld(I13)=1 and ctl(I15:14)=00.
	add := find(res, "acc.r := (acc.r + ram.m")[0]
	assign := map[int]bool{13: true, 14: false, 15: false}
	if !m.Eval(add.Cond.Static, assign) {
		t.Error("add template must fire with I13=1, ctl=00")
	}
	if m.Eval(add.Cond.Static, map[int]bool{13: false, 14: false, 15: false}) {
		t.Error("add template must not fire with I13=0")
	}
	if m.Eval(add.Cond.Static, map[int]bool{13: true, 14: true, 15: false}) {
		t.Error("add template must not fire with ctl=01")
	}
	// The pass-through template uses the ELSE branch: ctl=11.
	mov := find(res, "acc.r := ram.m")[0]
	if !m.Eval(mov.Cond.Static, map[int]bool{13: true, 14: true, 15: true}) {
		t.Error("move template must fire with ctl=11")
	}
	// Store: requires I12.
	st := find(res, "ram.m[IW[3:0]] := acc.r")[0]
	if !m.Eval(st.Cond.Static, map[int]bool{12: true}) ||
		m.Eval(st.Cond.Static, map[int]bool{12: false}) {
		t.Error("store template condition must be exactly I12")
	}
	// PC increment: unconditional.
	inc := find(res, "pc.r := (pc.r + 1)")[0]
	if !m.Tautology(inc.Cond.Static) {
		t.Errorf("pc increment must be unconditional, got %s", m.String(inc.Cond.Static))
	}
	// Parallelism: add and store can be encoded in the same word.
	if m.And(add.Cond.Static, st.Cond.Static) == m.False() {
		t.Error("add and store should be encodable in parallel")
	}
}

func TestExtractStats(t *testing.T) {
	res := extract(t, tinySrc)
	if res.Stats.Templates != res.Base.Len() {
		t.Error("stats template count mismatch")
	}
	if res.Stats.RoutesEnumerated < res.Stats.Templates {
		t.Errorf("routes %d < templates %d", res.Stats.RoutesEnumerated, res.Stats.Templates)
	}
	if res.Stats.BDDNodes <= 2 {
		t.Error("BDD universe suspiciously empty")
	}
	if res.Vars.InsnWidth() != 16 {
		t.Errorf("insn width = %d", res.Vars.InsnWidth())
	}
}

func TestVarMapQueries(t *testing.T) {
	res := extract(t, tinySrc)
	if bit, ok := res.Vars.IsInsnVar(res.Vars.InsnVars[13]); !ok || bit != 13 {
		t.Error("IsInsnVar(13) failed")
	}
	if _, ok := res.Vars.IsInsnVar(-7); ok {
		t.Error("bogus var reported as instruction bit")
	}
	if s, _ := res.Vars.ModeVarOwner(res.Vars.InsnVars[0]); s != "" {
		t.Error("instruction bit misattributed to mode storage")
	}
}

// Immediate operands: instruction bits routed into the datapath.
const immSrc = `
PROCESSOR immy;
MODULE Alu (IN a: 8; IN b: 8; IN ctl: 1; OUT y: 8);
BEGIN
  y <- CASE ctl OF 0: a + b; 1: a; END;
END;
MODULE Reg (IN d: 8; IN ld: 1; OUT q: 8);
VAR r: 8;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
MODULE Rom (IN a: 4; OUT q: 16);
VAR m: 16 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
PARTS
  alu : Alu; acc : Reg; imem : Rom INSTRUCTION; pc : PcReg PC; pinc : Inc;
CONNECT
  alu.a  <- imem.q[7:0];
  alu.b  <- acc.q;
  alu.ctl<- imem.q[15];
  acc.d  <- alu.y;
  acc.ld <- imem.q[14];
  imem.a <- pc.q;
  pinc.a <- pc.q;
  pc.d   <- pinc.y;
END.
`

func TestImmediateOperands(t *testing.T) {
	res := extract(t, immSrc)
	// acc.r := IW[7:0] + acc.r  and  acc.r := IW[7:0]
	addi := find(res, "acc.r := (IW[7:0] + acc.r)")
	if len(addi) != 1 {
		t.Fatalf("add-immediate template missing:\n%s", res.Base)
	}
	ldi := find(res, "acc.r := IW[7:0]")
	if len(ldi) == 0 {
		t.Fatalf("load-immediate template missing:\n%s", res.Base)
	}
	s := res.Base.Exprs()
	var fields []*rtl.Expr
	for _, k := range s.Kids(addi[0].Src) {
		if e := s.Expr(k); e.Kind == rtl.InsnField {
			fields = append(fields, e)
		}
	}
	if len(fields) != 1 || fields[0].Hi != 7 || fields[0].Lo != 0 {
		t.Errorf("immediate field = %v", fields)
	}
}

// Bus contention: two drivers enabled by the same condition must prune each
// other; complementary conditions survive.
const busSrc = `
PROCESSOR bussy;
MODULE Reg (IN d: 8; IN ld: 1; OUT q: 8);
VAR r: 8;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
MODULE Rom (IN a: 4; OUT q: 16);
VAR m: 16 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
BUS db : 8;
PARTS
  r0 : Reg; r1 : Reg; r2 : Reg; imem : Rom INSTRUCTION; pc : PcReg PC; pinc : Inc;
CONNECT
  db <- r0.q WHEN imem.q[7] == 1;
  db <- r1.q WHEN imem.q[7] == 0;
  db <- r2.q WHEN imem.q[7] == 1;   -- contends with the r0 driver
  r0.d <- db;
  r1.d <- db;
  r2.d <- db;
  r0.ld <- imem.q[6];
  r1.ld <- imem.q[5];
  r2.ld <- imem.q[4];
  imem.a <- pc.q;
  pinc.a <- pc.q;
  pc.d <- pinc.y;
END.
`

func TestBusContentionPruned(t *testing.T) {
	res := extract(t, busSrc)
	// Routes via r0 and r2 require I7=1 AND NOT(other's I7=1) => unsat.
	if got := find(res, ":= r0.r"); len(got) != 0 {
		t.Errorf("contending r0 route survived: %v", got)
	}
	if got := find(res, ":= r2.r"); len(got) != 0 {
		t.Errorf("contending r2 route survived: %v", got)
	}
	// The r1 route (I7=0) is exclusive and must survive into each register.
	if got := find(res, "r0.r := r1.r"); len(got) != 1 {
		t.Errorf("r0 := r1 missing:\n%s", res.Base)
	}
	if res.Stats.Unsatisfiable == 0 {
		t.Error("expected unsatisfiable routes to be counted")
	}
}

// Conditional jump: the PC mux is steered by a data register, so the jump
// templates carry residual dynamic guards.
const jumpSrc = `
PROCESSOR jumpy;
MODULE Reg1 (IN d: 1; IN ld: 1; OUT q: 1);
VAR r: 1;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
MODULE Rom (IN a: 4; OUT q: 16);
VAR m: 16 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
MODULE PcMux (IN inc: 4; IN tgt: 4; IN take: 1; OUT y: 4);
BEGIN y <- CASE take OF 1: tgt; ELSE: inc; END; END;
PARTS
  flag : Reg1; imem : Rom INSTRUCTION; pc : PcReg PC; pinc : Inc; pmux : PcMux;
CONNECT
  flag.d  <- imem.q[8];
  flag.ld <- imem.q[9];
  pmux.inc <- pinc.y;
  pmux.tgt <- imem.q[3:0];
  pmux.take <- flag.q;
  pinc.a <- pc.q;
  pc.d <- pmux.y;
  imem.a <- pc.q;
END.
`

func TestDynamicGuards(t *testing.T) {
	res := extract(t, jumpSrc)
	jump := find(res, "pc.r := IW[3:0]", "when")
	if len(jump) != 1 {
		t.Fatalf("conditional jump template missing:\n%s", res.Base)
	}
	if len(jump[0].Cond.Dynamic) != 1 {
		t.Fatalf("jump guards = %v", jump[0].Cond.Dynamic)
	}
	s := res.Base.Exprs()
	g := jump[0].Cond.Dynamic[0]
	if e := s.Expr(g); e.Kind != rtl.OpApp || e.Op != rtl.OpEq {
		t.Errorf("guard = %s", s.String(g))
	}
	if !strings.Contains(s.String(g), "flag.r") {
		t.Errorf("guard must test flag.r, got %s", s.String(g))
	}
	// Fallthrough template with the complementary guard.
	ft := find(res, "pc.r := (pc.r + 1)", "when")
	if len(ft) != 1 {
		t.Fatalf("guarded fallthrough missing:\n%s", res.Base)
	}
	if g := ft[0].Cond.Dynamic[0]; s.Expr(g).Op != rtl.OpNe {
		t.Errorf("fallthrough guard = %s", s.String(g))
	}
}

// Mode registers: a control signal stored in a mode register becomes a BDD
// variable distinct from instruction bits.
const modeSrc = `
PROCESSOR mody;
MODULE Alu (IN a: 8; IN b: 8; IN ctl: 1; OUT y: 8);
BEGIN y <- CASE ctl OF 0: a + b; 1: a - b; END; END;
MODULE Reg (IN d: 8; IN ld: 1; OUT q: 8);
VAR r: 8;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
MODULE Reg1 (IN d: 1; IN ld: 1; OUT q: 1);
VAR r: 1;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
MODULE Rom (IN a: 4; OUT q: 16);
VAR m: 16 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
PARTS
  alu : Alu; acc : Reg; mr : Reg1 MODE; imem : Rom INSTRUCTION; pc : PcReg PC; pinc : Inc;
CONNECT
  alu.a <- acc.q;
  alu.b <- imem.q[7:0];
  alu.ctl <- mr.q;
  acc.d <- alu.y;
  acc.ld <- imem.q[14];
  mr.d <- imem.q[15];
  mr.ld <- imem.q[13];
  imem.a <- pc.q;
  pinc.a <- pc.q;
  pc.d <- pinc.y;
END.
`

func TestModeRegisterConditions(t *testing.T) {
	res := extract(t, modeSrc)
	m := res.Vars.M
	add := find(res, "acc.r := (acc.r + IW[7:0])")
	if len(add) != 1 {
		t.Fatalf("mode-steered add missing:\n%s", res.Base)
	}
	modeBits := res.Vars.ModeVars["mr.r"]
	if len(modeBits) != 1 {
		t.Fatalf("mode vars = %v", res.Vars.ModeVars)
	}
	mv := modeBits[0]
	// Condition: I14=1 AND mode bit = 0.
	if !m.Eval(add[0].Cond.Static, map[int]bool{14: true, mv: false}) {
		t.Error("add must fire with mode=0")
	}
	if m.Eval(add[0].Cond.Static, map[int]bool{14: true, mv: true}) {
		t.Error("add must not fire with mode=1")
	}
	// The mode register itself is also an RT destination.
	if len(find(res, "mr.r := IW[15]")) != 1 {
		t.Errorf("mode-set template missing:\n%s", res.Base)
	}
}

func TestExtractDegradesOnRouteExplosion(t *testing.T) {
	// Undriven-port models are rejected by the checker, so exercise the
	// route-explosion limit instead.  With MaxAlts=1 exploding destinations
	// are dropped with warnings; extraction either degrades (some routes
	// survive) or fails outright when nothing survives — it must not crash
	// and must account for every destination it abandoned.
	m, err := hdl.ParseAndCheck(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	rep := &diag.Reporter{}
	res, err := Extract(n, Options{MaxAlts: 1, MaxTemplates: 10, Reporter: rep})
	if err != nil {
		if rep.Warns() == 0 {
			t.Errorf("total failure must still explain itself: %v, no warnings", err)
		}
		return
	}
	if res.Stats.Dropped == 0 {
		t.Error("MaxAlts=1 should drop at least one destination on tinySrc")
	}
	if got := rep.Warns(); got != res.Stats.Dropped {
		t.Errorf("warnings = %d, dropped = %d; want one warning per dropped destination", got, res.Stats.Dropped)
	}
	if res.Base.Len() == 0 {
		t.Error("degraded result should keep surviving templates")
	}
}

// TestExtractFaultpointDropsOneDestination injects a route explosion into a
// single destination and checks that exactly that destination is dropped
// while the rest of the instruction set survives intact.
func TestExtractFaultpointDropsOneDestination(t *testing.T) {
	m, err := hdl.ParseAndCheck(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Extract(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dests := full.Base.Destinations()
	if len(dests) < 2 {
		t.Fatalf("need >= 2 destinations, got %v", dests)
	}
	victim := dests[0]

	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("ise.route.explosion", faultpoint.Action{Kind: faultpoint.KindError, Match: victim})
	rep := &diag.Reporter{}
	res, err := Extract(n, Options{Reporter: rep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", res.Stats.Dropped)
	}
	if rep.Warns() != 1 {
		t.Errorf("warnings = %d, want 1: %v", rep.Warns(), rep.Diags())
	}
	for _, d := range res.Base.Destinations() {
		if d == victim {
			t.Errorf("victim destination %s still present", victim)
		}
	}
	// Every other destination is unaffected.
	want := make(map[string]bool)
	for _, d := range dests {
		if d != victim {
			want[d] = true
		}
	}
	for _, d := range res.Base.Destinations() {
		delete(want, d)
	}
	for d := range want {
		t.Errorf("destination %s lost collaterally", d)
	}
}

// TestExtractBudgetPartial stops extraction with an already-expired deadline:
// the result is empty/partial but Extract reports it rather than hanging.
func TestExtractBudgetPartial(t *testing.T) {
	m, err := hdl.ParseAndCheck(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := &diag.Reporter{}
	res, err := Extract(n, Options{Reporter: rep, Budget: &diag.Budget{Ctx: ctx}})
	if err != nil {
		// All destinations unvisited: acceptable only if warned.
		if rep.Warns() == 0 {
			t.Errorf("budget failure unexplained: %v", err)
		}
		return
	}
	if !res.Stats.Partial {
		t.Error("Stats.Partial not set under expired budget")
	}
	if rep.Warns() == 0 {
		t.Error("no warning for partial extraction")
	}
}

// TestExtractBudgetNodeCap bounds the BDD universe; extraction stops with a
// partial base once the cap is crossed.
func TestExtractBudgetNodeCap(t *testing.T) {
	m, err := hdl.ParseAndCheck(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	rep := &diag.Reporter{}
	res, err := Extract(n, Options{Reporter: rep, Budget: &diag.Budget{MaxBDDNodes: 1}})
	if err != nil {
		if rep.Warns() == 0 {
			t.Errorf("node-cap failure unexplained: %v", err)
		}
		return
	}
	if !res.Stats.Partial {
		t.Error("Stats.Partial not set under 1-node cap")
	}
}

func TestTemplateWidths(t *testing.T) {
	res := extract(t, tinySrc)
	for _, tpl := range res.Base.Templates {
		if tpl.Width <= 0 {
			t.Errorf("template %s has width %d", tpl, tpl.Width)
		}
		if w := res.Base.Exprs().Expr(tpl.Src).Width; w != tpl.Width {
			t.Errorf("template %s: src width %d != dest width %d", tpl, w, tpl.Width)
		}
	}
}
