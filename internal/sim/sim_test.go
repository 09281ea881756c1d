package sim

import (
	"strings"
	"testing"

	"repro/internal/hdl"
	"repro/internal/netlist"
)

const machine = `
PROCESSOR simtest;
CONST WORD = 8;

MODULE Alu (IN a: WORD; IN b: WORD; IN op: 2; OUT y: WORD);
BEGIN
  y <- CASE op OF 0: a + b; 1: a - b; 2: a & b; 3: b; END;
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

PORT OUT obs : WORD;

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
  alu.op  <- imem.q[15:14];
  acc.d   <- alu.y;
  acc.ld  <- imem.q[13];
  ram.a   <- imem.q[3:0];
  ram.d   <- acc.q;
  ram.w   <- imem.q[12];
  imem.a  <- pc.q;
  pinc.a  <- pc.q;
  pc.d    <- pinc.y;
  obs     <- acc.q;
END.
`

// Instruction builder for the test machine.
func insn(op uint64, ld, w bool, addr uint64) uint64 {
	word := op<<14 | addr&0xF
	if ld {
		word |= 1 << 13
	}
	if w {
		word |= 1 << 12
	}
	return word
}

func newSim(t *testing.T) *Simulator {
	t.Helper()
	m, err := hdl.ParseAndCheck(machine)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	return New(n)
}

func TestStepExecution(t *testing.T) {
	s := newSim(t)
	if err := s.SetMemory("ram.m", []int64{5, 7}); err != nil {
		t.Fatal(err)
	}
	// acc := 0 + ram[0]; acc := acc + ram[1]; ram[2] := acc.
	prog := []uint64{
		insn(3, true, false, 0), // acc := ram[0]
		insn(0, true, false, 1), // acc := acc + ram[1]
		insn(0, false, true, 2), // ram[2] := acc (op add irrelevant, no ld)
	}
	if err := s.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem["acc.r"][0]; got != 12 {
		t.Errorf("acc = %d", got)
	}
	if got := s.Mem["ram.m"][2]; got != 12 {
		t.Errorf("ram[2] = %d", got)
	}
	if s.PC() != 3 {
		t.Errorf("pc = %d", s.PC())
	}
	if s.Cycle != 3 {
		t.Errorf("cycle = %d", s.Cycle)
	}
}

func TestSubtractWraps(t *testing.T) {
	s := newSim(t)
	if err := s.SetMemory("ram.m", []int64{3}); err != nil {
		t.Fatal(err)
	}
	// acc := ram[0]; acc := acc - ram[0]; acc := acc - ram[0] -> -3 wrapped.
	prog := []uint64{
		insn(3, true, false, 0),
		insn(1, true, false, 0),
		insn(1, true, false, 0),
	}
	if err := s.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem["acc.r"][0]; got != -3 {
		t.Errorf("acc = %d, want -3", got)
	}
}

func TestLoadProgramErrors(t *testing.T) {
	s := newSim(t)
	long := make([]uint64, 100)
	if err := s.LoadProgram(long); err == nil {
		t.Error("oversized program accepted")
	}
	if err := s.SetMemory("ghost", []int64{1}); err == nil {
		t.Error("unknown storage accepted")
	}
	if err := s.SetMemory("ram.m", make([]int64, 99)); err == nil {
		t.Error("oversized image accepted")
	}
}

const busMachine = `
PROCESSOR bussim;
MODULE Reg (IN d: 8; IN ld: 1; OUT q: 8);
VAR r: 8;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
BUS db : 8;
PARTS
  r0 : Reg; r1 : Reg; dst : Reg;
  imem : Rom INSTRUCTION; pc : PcReg PC; pinc : Inc;
CONNECT
  db <- r0.q WHEN imem.q[7] == 1;
  db <- r1.q WHEN imem.q[6] == 1;
  dst.d <- db;
  dst.ld <- imem.q[5];
  r0.d <- db;
  r0.ld <- imem.q[4];
  r1.d <- db;
  r1.ld <- imem.q[3];
  imem.a <- pc.q;
  pinc.a <- pc.q;
  pc.d <- pinc.y;
END.
`

func newBusSim(t *testing.T) *Simulator {
	t.Helper()
	m, err := hdl.ParseAndCheck(busMachine)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	return New(n)
}

func TestBusTransfer(t *testing.T) {
	s := newBusSim(t)
	s.Mem["r0.r"][0] = 55
	// drive r0 onto the bus, load dst: bits 7 and 5.
	if err := s.RunProgram([]uint64{1<<7 | 1<<5}); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem["dst.r"][0]; got != 55 {
		t.Errorf("dst = %d", got)
	}
}

func TestBusContention(t *testing.T) {
	s := newBusSim(t)
	err := s.RunProgram([]uint64{1<<7 | 1<<6 | 1<<5})
	if err == nil || !strings.Contains(err.Error(), "contention") {
		t.Errorf("err = %v", err)
	}
}

func TestBusFloating(t *testing.T) {
	s := newBusSim(t)
	// Load dst from a floating bus.
	err := s.RunProgram([]uint64{1 << 5})
	if err == nil || !strings.Contains(err.Error(), "floating") {
		t.Errorf("err = %v", err)
	}
}

func TestFloatingBusUnconsumedIsFine(t *testing.T) {
	s := newBusSim(t)
	// Nothing enabled, nothing loaded: lazy evaluation never touches the
	// bus, so the cycle succeeds.
	if err := s.RunProgram([]uint64{0}); err != nil {
		t.Fatalf("idle cycle failed: %v", err)
	}
}

const conflictMachine = `
PROCESSOR conflictsim;
MODULE DualW (IN d: 8; IN w1: 1; IN w2: 1; OUT q: 8);
VAR r: 8;
BEGIN
  q <- r;
  AT w1 == 1 DO r <- d;
  AT w2 == 1 DO r <- d + 1;
END;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
PARTS
  x : DualW; imem : Rom INSTRUCTION; pc : PcReg PC; pinc : Inc;
CONNECT
  x.d  <- imem.q;
  x.w1 <- imem.q[0];
  x.w2 <- imem.q[1];
  imem.a <- pc.q;
  pinc.a <- pc.q;
  pc.d <- pinc.y;
END.
`

func TestWriteConflictDetected(t *testing.T) {
	m, err := hdl.ParseAndCheck(conflictMachine)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	s := New(n)
	// Enable both guarded writes with different values.
	err = s.RunProgram([]uint64{0x03})
	if err == nil || !strings.Contains(err.Error(), "write conflict") {
		t.Errorf("err = %v", err)
	}
	// A single write works.
	s2 := New(n)
	if err := s2.RunProgram([]uint64{0x01}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Mem["x.r"][0]; got != 1 {
		t.Errorf("x = %d", got)
	}
}
