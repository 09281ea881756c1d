package compact_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/ir"
	"repro/internal/models"
	"repro/internal/rtl"
)

// referenceWords is the pairwise scheduler Compact's location tables
// replace: an RT's earliest word comes from a dependence test against
// every earlier RT.  It returns each RT's word by sequence position.
func referenceWords(seq *code.Seq, enc compact.Feasibility) []int {
	wordOf := make([]int, len(seq.Instrs))
	var words [][]*code.Instr
	for idx, in := range seq.Instrs {
		earliest := 0
		for j := 0; j < idx; j++ {
			w := wordOf[j]
			if code.RAW(seq.Instrs[j], in) || code.WAW(seq.Instrs[j], in) {
				earliest = max(earliest, w+1)
			} else if code.WAR(seq.Instrs[j], in) {
				earliest = max(earliest, w)
			}
		}
		wordOf[idx] = len(words)
		for w := earliest; w < len(words); w++ {
			trial := append(append([]*code.Instr(nil), words[w]...), in)
			if enc.Feasible(trial) {
				wordOf[idx] = w
				break
			}
		}
		if wordOf[idx] == len(words) {
			words = append(words, nil)
		}
		words[wordOf[idx]] = append(words[wordOf[idx]], in)
	}
	return wordOf
}

// sameWordsAsReference fails the test unless Compact placed every RT of
// res in the word the reference scheduler picks.
func sameWordsAsReference(t *testing.T, tg *core.Target, name string, res *core.CompileResult) {
	t.Helper()
	ref := referenceWords(res.Seq, tg.Encoder.NewSession())
	got := make(map[*code.Instr]int, res.SeqLen())
	for w, word := range res.Code.Words {
		for _, in := range word.Instrs {
			got[in] = w
		}
	}
	for i, in := range res.Seq.Instrs {
		if w, ok := got[in]; !ok || w != ref[i] {
			t.Fatalf("%s: RT %d (%s) in word %d (placed %v), reference word %d", name, i, in, w, ok, ref[i])
		}
	}
}

// TestCompactMatchesPairwiseReference compiles DSPStone on every bundled
// model, the suite plus every sized kernel up to n=64, and checks each
// placement against the pairwise scheduler.
func TestCompactMatchesPairwiseReference(t *testing.T) {
	kernels := dspstone.Suite()
	for _, gen := range []func(int) dspstone.Kernel{dspstone.NRealUpdates, dspstone.NComplexUpdates,
		dspstone.DotProduct, dspstone.Fir, dspstone.BiquadN, dspstone.Convolution} {
		for _, n := range []int{2, 4, 16, 32, 64} {
			kernels = append(kernels, gen(n))
		}
	}
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	for _, name := range names {
		mdl, _ := models.Get(name)
		tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compiled, largest := 0, 0
		for _, k := range kernels {
			res, err := newCompiler(t, tg).CompileSource(context.Background(), k.Source)
			if err != nil {
				continue // a kernel the machine cannot hold or express
			}
			sameWordsAsReference(t, tg, fmt.Sprintf("%s/%s/n=%d", name, k.Name, k.N), res)
			compiled++
			largest = max(largest, res.SeqLen())
		}
		rng := rand.New(rand.NewSource(12345))
		for trial := 0; trial < 150; trial++ {
			res, err := newCompiler(t, tg).CompileProgramOpts(context.Background(), randomProgram(rng), core.CompileOptions{})
			if err != nil {
				continue
			}
			sameWordsAsReference(t, tg, fmt.Sprintf("%s/random %d", name, trial), res)
			compiled++
		}
		t.Logf("%s: %d of %d programs compiled, largest %d RTs", name, compiled, len(kernels)+150, largest)
		if name == "tms320c25" && largest < 700 {
			t.Errorf("tms320c25: largest program has %d RTs, want the 700+ of biquad_N n=32", largest)
		}
	}
}

// TestCompactMatchesPairwiseReferenceMicro16 checks the placements of the
// random programs core's property test compiles, on the same machine.
func TestCompactMatchesPairwiseReferenceMicro16(t *testing.T) {
	tg, err := core.RetargetContext(context.Background(), micro16, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 150; trial++ {
		res, err := newCompiler(t, tg).CompileProgramOpts(context.Background(), randomProgram(rng), core.CompileOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameWordsAsReference(t, tg, fmt.Sprintf("trial %d", trial), res)
	}
}

// micro16 and randomProgram are core's property-test machine and program
// generator (internal/core/core_test.go and fuzz_test.go).
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

func randomProgram(rng *rand.Rand) *ir.Program {
	scalars := []string{"v0", "v1", "v2", "v3"}
	p := &ir.Program{}
	for _, s := range scalars {
		p.Decls = append(p.Decls, &ir.Decl{
			Name: s, Init: []int64{int64(rng.Intn(2000) - 1000)}})
	}
	p.Decls = append(p.Decls, &ir.Decl{Name: "arr", Size: 4,
		Init: []int64{int64(rng.Intn(100)), int64(rng.Intn(100)),
			int64(rng.Intn(100)), int64(rng.Intn(100))}})

	ops := []rtl.Op{rtl.OpAdd, rtl.OpSub, rtl.OpMul, rtl.OpAnd, rtl.OpOr, rtl.OpXor}
	var gen func(depth int) ir.Expr
	gen = func(depth int) ir.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(4) {
			case 0:
				return &ir.Const{Val: int64(rng.Intn(512) - 256)}
			case 1:
				return &ir.Ref{Name: "arr", Index: &ir.Const{Val: int64(rng.Intn(4))}}
			default:
				return &ir.Ref{Name: scalars[rng.Intn(len(scalars))]}
			}
		}
		if rng.Intn(8) == 0 {
			return &ir.Un{Op: rtl.OpNeg, X: gen(depth - 1)}
		}
		return &ir.Bin{Op: ops[rng.Intn(len(ops))], X: gen(depth - 1), Y: gen(depth - 1)}
	}

	nStmts := 1 + rng.Intn(5)
	for i := 0; i < nStmts; i++ {
		var lhs *ir.Ref
		if rng.Intn(4) == 0 {
			lhs = &ir.Ref{Name: "arr", Index: &ir.Const{Val: int64(rng.Intn(4))}}
		} else {
			lhs = &ir.Ref{Name: scalars[rng.Intn(len(scalars))]}
		}
		p.Body = append(p.Body, &ir.Assign{LHS: lhs, RHS: gen(2 + rng.Intn(2))})
	}
	return p
}
