package models

// BrancherMDL extends the accumulator machine with the "standard jump
// instructions" of the paper's processor class (table 1): a comparator
// writes a 1-bit flag register, and a next-PC multiplexer selects between
// PC+1, an unconditional jump target and a flag-conditional jump target.
// Instruction-set extraction turns the multiplexer into PC-destination RT
// templates — the conditional ones carrying residual dynamic guards on
// the flag — which core.Compiler uses to compile if/while programs.
//
// Instruction word (32 bits):
//
//	[31:29] aluop   [28] bsel (0 memory, 1 immediate)
//	[27] acc.ld     [26] mem write
//	[25] flag.ld    [24:23] compare op (0 <, 1 ==, 2 !=, 3 <=)
//	[22:21] jump op (0 PC+1, 1 jump, 2 jump-if-flag; 3 also PC+1)
//	[15:0] immediate; [7:0] address / jump target
//
// The all-zero jump-op selection is PC+1, so data words that leave those
// bits unconstrained sequence normally (see asm.NewEncoder background).
const BrancherMDL = `
PROCESSOR brancher;
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
         7: a >>> 1;
       END;
END;

MODULE Cmp (IN a: WORD; IN b: WORD; IN cc: 2; OUT y: 1);
BEGIN
  y <- CASE cc OF
         0: a < b;
         1: a == b;
         2: a != b;
         3: a <= b;
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

MODULE PcMux (IN inc: 8; IN tgt: 8; IN f: 1; IN jop: 2; OUT y: 8);
BEGIN
  y <- CASE jop OF
         0: inc;
         1: tgt;
         2: CASE f OF 1: tgt; ELSE: inc; END;
         3: inc;
       END;
END;

MODULE PcReg (IN d: 8; OUT q: 8);
VAR r: 8;
BEGIN q <- r; r <- d; END;

PARTS
  alu  : Alu;
  cmp  : Cmp;
  bmux : BMux;
  acc  : Reg;
  flag : Reg1;
  ram  : Ram;
  imem : Rom INSTRUCTION;
  pc   : PcReg PC;
  pinc : Inc;
  pmux : PcMux;

CONNECT
  alu.a    <- acc.q;
  alu.b    <- bmux.y;
  alu.op   <- imem.q[31:29];
  bmux.m   <- ram.q;
  bmux.imm <- imem.q[15:0];
  bmux.s   <- imem.q[28];
  acc.d    <- alu.y;
  acc.ld   <- imem.q[27];

  cmp.a    <- acc.q;
  cmp.b    <- bmux.y;
  cmp.cc   <- imem.q[24:23];
  flag.d   <- cmp.y;
  flag.ld  <- imem.q[25];

  ram.a    <- imem.q[7:0];
  ram.d    <- acc.q;
  ram.w    <- imem.q[26];

  imem.a   <- pc.q;
  pinc.a   <- pc.q;
  pmux.inc <- pinc.y;
  pmux.tgt <- imem.q[7:0];
  pmux.f   <- flag.q;
  pmux.jop <- imem.q[22:21];
  pc.d     <- pmux.y;
END.
`
