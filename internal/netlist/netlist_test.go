package netlist

import (
	"strings"
	"testing"

	"repro/internal/hdl"
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

func elaborate(t *testing.T, src string) *Netlist {
	t.Helper()
	m, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	n, err := Elaborate(m)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return n
}

func TestElaborateTiny(t *testing.T) {
	n := elaborate(t, tinySrc)
	if len(n.Insts) != 6 {
		t.Fatalf("insts = %d", len(n.Insts))
	}
	if n.InsnInst == nil || n.InsnInst.Name != "imem" || n.InsnPort != "q" || n.InsnWidth != 16 {
		t.Fatalf("instruction identification wrong: %+v %q %d", n.InsnInst, n.InsnPort, n.InsnWidth)
	}
	if n.PCInst == nil || n.PCInst.Name != "pc" {
		t.Fatal("PC not identified")
	}
	// Storage registry.
	for _, q := range []string{"acc.r", "ram.m", "imem.m", "pc.r"} {
		if n.Storages[q] == nil {
			t.Errorf("storage %s missing", q)
		}
	}
	if !n.Storages["imem.m"].Insn {
		t.Error("imem.m must be flagged Insn")
	}
	if !n.Storages["pc.r"].PC {
		t.Error("pc.r must be flagged PC")
	}
	// DataStorages excludes the instruction memory.
	for _, s := range n.DataStorages() {
		if s.QName() == "imem.m" {
			t.Error("DataStorages must exclude instruction memory")
		}
	}
	if len(n.DataStorages()) != 3 {
		t.Errorf("DataStorages = %d, want 3", len(n.DataStorages()))
	}
}

func TestDrivers(t *testing.T) {
	n := elaborate(t, tinySrc)
	alu := n.InstByName["alu"]
	a := alu.Drivers["a"]
	if a == nil || a.Kind != DrivePort || a.Inst.Name != "acc" || a.Port != "q" {
		t.Fatalf("alu.a driver = %v", a)
	}
	if a.Hi != 7 || a.Lo != 0 || a.Width != 8 {
		t.Fatalf("alu.a slice = [%d:%d] w%d", a.Hi, a.Lo, a.Width)
	}
	ctl := alu.Drivers["ctl"]
	if ctl.Kind != DrivePort || ctl.Inst.Name != "imem" || ctl.Hi != 15 || ctl.Lo != 14 {
		t.Fatalf("alu.ctl driver = %v [%d:%d]", ctl, ctl.Hi, ctl.Lo)
	}
	if ctl.String() != "imem.q[15:14]" {
		t.Errorf("driver rendering = %q", ctl)
	}
	if a.String() != "acc.q" {
		t.Errorf("full-width driver rendering = %q", a)
	}
}

func TestOutputDeps(t *testing.T) {
	n := elaborate(t, tinySrc)
	alu := n.InstByName["alu"]
	deps := n.OutputDeps(alu, "y")
	if strings.Join(deps, ",") != "a,b,ctl" {
		t.Fatalf("alu.y deps = %v", deps)
	}
	acc := n.InstByName["acc"]
	if deps := n.OutputDeps(acc, "q"); len(deps) != 0 {
		t.Fatalf("register read must have no input deps, got %v", deps)
	}
	ram := n.InstByName["ram"]
	if deps := n.OutputDeps(ram, "q"); strings.Join(deps, ",") != "a" {
		t.Fatalf("ram.q deps = %v", deps)
	}
}

func TestCombLoopDetected(t *testing.T) {
	src := `
PROCESSOR loopy;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE Buf (IN a: 8; OUT y: 8);
BEGIN y <- a + 1; END;
PARTS imem : Rom INSTRUCTION; b1 : Buf; b2 : Buf;
CONNECT
  imem.a <- 3;
  b1.a <- b2.y;
  b2.a <- b1.y;
END.
`
	m, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Elaborate(m); err == nil || !strings.Contains(err.Error(), "combinational loop") {
		t.Fatalf("expected combinational loop error, got %v", err)
	}
}

// A WHEN condition that reads a bus driven from the bus it enables is a
// combinational loop.
func TestWhenBusLoopDetected(t *testing.T) {
	src := `
PROCESSOR whenloop;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE Reg (IN d: 8; IN ld: 1; OUT q: 8);
VAR r: 8;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
BUS db : 8;
BUS sel : 8;
PARTS imem : Rom INSTRUCTION; r0 : Reg;
CONNECT
  imem.a <- 3;
  db <- r0.q WHEN sel[0] == 1;
  sel <- db;
  r0.d <- db;
  r0.ld <- imem.q[6];
END.
`
	m, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Elaborate(m); err == nil || !strings.Contains(err.Error(), "combinational loop through bus") {
		t.Fatalf("expected combinational loop error, got %v", err)
	}
}

func TestSequentialBreaksLoop(t *testing.T) {
	// acc feeds alu feeds acc: fine, the register breaks the cycle.
	n := elaborate(t, tinySrc)
	if n == nil {
		t.Fatal("tiny model must elaborate")
	}
}

func TestBusElaboration(t *testing.T) {
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
  imem.a <- 3;
  db <- r0.q WHEN imem.q[7] == 1;
  db <- r1.q WHEN imem.q[7] == 0;
  r0.d <- db;
  r1.d <- db;
  r0.ld <- imem.q[6];
  r1.ld <- imem.q[5];
END.
`
	n := elaborate(t, src)
	bus := n.Buses["db"]
	if bus == nil || len(bus.Drivers) != 2 {
		t.Fatalf("bus drivers = %+v", bus)
	}
	for _, bd := range bus.Drivers {
		if bd.When == nil {
			t.Error("bus driver lost WHEN")
		}
		if bd.Src.Kind != DrivePort {
			t.Errorf("bus driver source kind = %v", bd.Src.Kind)
		}
	}
	r0 := n.InstByName["r0"]
	if r0.Drivers["d"].Kind != DriveBus {
		t.Error("r0.d must be bus-driven")
	}
}

func TestPrimaryPortsElaboration(t *testing.T) {
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
	n := elaborate(t, src)
	if n.PrimaryIn["din"] == nil {
		t.Fatal("primary input missing")
	}
	d := n.PrimaryOut["dout"]
	if d == nil || d.Kind != DrivePort || d.Inst.Name != "imem" {
		t.Fatalf("primary out driver = %v", d)
	}
	imem := n.InstByName["imem"]
	ad := imem.Drivers["a"]
	if ad.Kind != DrivePrimary || ad.Hi != 3 || ad.Lo != 0 {
		t.Fatalf("imem.a driver = %v", ad)
	}
}

func TestConstSource(t *testing.T) {
	src := `
PROCESSOR p;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE Buf (IN a: 8; OUT y: 8);
BEGIN y <- a; END;
PARTS imem : Rom INSTRUCTION; b : Buf;
CONNECT
  imem.a <- 3;
  b.a <- 42;
END.
`
	n := elaborate(t, src)
	d := n.InstByName["b"].Drivers["a"]
	if d.Kind != DriveConst || d.Const != 42 || d.Width != 8 {
		t.Fatalf("const driver = %+v", d)
	}
}

func TestComplexSourceRejected(t *testing.T) {
	src := `
PROCESSOR p;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE Buf (IN a: 8; OUT y: 8);
BEGIN y <- a; END;
PARTS imem : Rom INSTRUCTION; b : Buf;
CONNECT
  imem.a <- 3;
  b.a <- imem.q + 1;
END.
`
	m, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Elaborate(m); err == nil || !strings.Contains(err.Error(), "too complex") {
		t.Fatalf("expected complexity rejection, got %v", err)
	}
}

func TestModeStorages(t *testing.T) {
	src := `
PROCESSOR p;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE Reg (IN d: 1; IN ld: 1; OUT q: 1);
VAR r: 1;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
PARTS imem : Rom INSTRUCTION; mr : Reg MODE;
CONNECT
  imem.a <- 3;
  mr.d <- imem.q[7];
  mr.ld <- imem.q[6];
END.
`
	n := elaborate(t, src)
	ms := n.ModeStorages()
	if len(ms) != 1 || ms[0].QName() != "mr.r" || !ms[0].Mode {
		t.Fatalf("mode storages = %+v", ms)
	}
}
