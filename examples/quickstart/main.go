// Quickstart: retarget the compiler to a processor you describe in a few
// lines of HDL, compile a C-subset program for it, and run the result on
// the cycle-accurate netlist simulator.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
)

// A complete processor model: a 16-bit accumulator machine with an ALU,
// one data memory and an immediate path, plus program counter and
// instruction ROM.  This is all the compiler needs — the instruction set
// is *extracted* from the structure, never written down by hand.
const processor = `
PROCESSOR quickstart;
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

// A program in RecC, the C subset the compiler accepts.
const program = `
int a = 6;
int b = 7;
int sum;
int prod;
int mix;

void main() {
  sum  = a + b;
  prod = a * b;
  mix  = (sum ^ prod) & 255;
}
`

func main() {
	// 1. Retarget: HDL model -> netlist -> instruction-set extraction ->
	//    tree grammar -> code selector.
	target, err := core.RetargetContext(context.Background(), processor, core.RetargetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retargeted to %q in %v: %d RT templates extracted, %d after extension\n\n",
		target.Name, target.Stats.Total, target.Stats.Extracted, target.Stats.Templates)

	// 2. Compile through a compile handle, which pools the per-program
	//    encoding sessions of the frozen target.
	comp, err := core.NewCompiler(target, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.CompileSource(context.Background(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d RT instructions packed into %d instruction words\n\n",
		res.SeqLen(), res.CodeLen())
	fmt.Print(target.Listing(res))

	// 3. Execute on the netlist simulator and cross-check against the IR
	//    interpreter oracle.
	if err := target.CheckAgainstOracle(res); err != nil {
		log.Fatal(err)
	}
	env, err := target.Execute(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated on the netlist (oracle-checked):\n")
	fmt.Printf("  sum  = %d\n  prod = %d\n  mix  = %d\n",
		env["sum"][0], env["prod"][0], env["mix"][0])
}
