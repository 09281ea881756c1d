package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/dspstone"
	"repro/internal/ise"
)

// explosiveMicro16 extends micro16 with a write-only junk register fed by a
// chain of five muxes whose both inputs tap the previous stage: every stage
// doubles the route count under distinct selector bits, so enumerating
// junk.r's routes blows past a small MaxAlts while every original
// destination stays cheap.
func explosiveMicro16(t *testing.T) string {
	t.Helper()
	src := strings.Replace(micro16, "PARTS", `
MODULE JMux (IN a: WORD; IN b: WORD; IN s: 1; OUT y: WORD);
BEGIN y <- CASE s OF 0: a; 1: b; END; END;

PARTS
  j1 : JMux; j2 : JMux; j3 : JMux; j4 : JMux; j5 : JMux;
  junk : Reg;`, 1)
	src = strings.Replace(src, "CONNECT", `CONNECT
  j1.a <- acc.q;  j1.b <- ram.q;  j1.s <- imem.q[17];
  j2.a <- j1.y;   j2.b <- j1.y;   j2.s <- imem.q[16];
  j3.a <- j2.y;   j3.b <- j2.y;   j3.s <- imem.q[15];
  j4.a <- j3.y;   j4.b <- j3.y;   j4.s <- imem.q[14];
  j5.a <- j4.y;   j5.b <- j4.y;   j5.s <- imem.q[13];
  junk.d  <- j5.y;
  junk.ld <- imem.q[12];`, 1)
	if src == micro16 {
		t.Fatal("string surgery failed")
	}
	return src
}

// TestDegradedRetargetCompilesKernels is the core-level degradation
// guarantee: one genuinely explosive instruction (no fault injection) costs
// exactly its own destination — a Warn, not an abort — and the remaining
// instruction set still compiles and oracle-checks DSPStone kernels.
func TestDegradedRetargetCompilesKernels(t *testing.T) {
	rep := diag.NewReporter()
	tg, err := RetargetContext(context.Background(), explosiveMicro16(t), RetargetOptions{
		ISE:      ise.Options{MaxAlts: 20},
		Reporter: rep,
	})
	if err != nil {
		t.Fatalf("retarget must degrade, not fail: %v", err)
	}
	if got := tg.ISE.Stats.Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want exactly 1 (junk.r)", got)
	}
	if rep.Warns() != 1 {
		t.Fatalf("warnings = %d, want 1: %v", rep.Warns(), rep.Diags())
	}
	warn := rep.Diags()[0]
	if !strings.Contains(warn.Msg, "junk.r") || !strings.Contains(warn.Msg, "route explosion") {
		t.Errorf("warning does not identify the explosion: %s", warn)
	}
	for _, d := range tg.Base.Destinations() {
		if d == "junk.r" {
			t.Error("exploded destination survived in the template base")
		}
	}

	// The degraded target still compiles and oracle-checks straight-line
	// DSPStone kernels.
	checked := 0
	for _, k := range dspstone.Suite() {
		res, err := newCompiler(t, tg).CompileSource(context.Background(), k.Source)
		if err != nil {
			continue // kernels needing features micro16 lacks
		}
		if err := tg.CheckAgainstOracle(res); err != nil {
			t.Errorf("kernel %s: oracle mismatch on degraded target: %v", k.Name, err)
			continue
		}
		checked++
	}
	if checked == 0 {
		t.Error("no kernel compiled on the degraded target; degradation untestable")
	}
}

// TestExplosiveModelFailsWithoutDegradation pins the baseline: the same
// model under the old all-or-nothing semantics (every destination must
// enumerate) would have lost everything, which is what strict callers see
// when all destinations drop.
func TestExplosiveModelFailsWithoutDegradation(t *testing.T) {
	// Sanity: with generous limits the junk register is extractable.
	tg, err := RetargetContext(context.Background(), explosiveMicro16(t), RetargetOptions{})
	if err != nil {
		t.Fatalf("generous limits: %v", err)
	}
	if tg.ISE.Stats.Dropped != 0 {
		t.Errorf("Dropped = %d with default MaxAlts, want 0", tg.ISE.Stats.Dropped)
	}
	found := false
	for _, d := range tg.Base.Destinations() {
		if d == "junk.r" {
			found = true
		}
	}
	if !found {
		t.Error("junk.r missing under default limits; explosion fixture is broken")
	}
}
