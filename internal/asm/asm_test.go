package asm_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/code"
	"repro/internal/core"
)

func target(t *testing.T) *core.Target {
	t.Helper()
	tg, err := core.RetargetContext(context.Background(), asm.Micro16T, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// findInstr builds an Instr for the template matching the fragment.
func findInstr(t *testing.T, tg *core.Target, frag string, fields ...code.Field) *code.Instr {
	t.Helper()
	for _, tpl := range tg.Base.Templates {
		if strings.Contains(tpl.String(), frag) {
			return &code.Instr{Template: tpl, Fields: fields}
		}
	}
	t.Fatalf("no template matching %q", frag)
	return nil
}

func TestNOPEncodable(t *testing.T) {
	tg := target(t)
	nop, err := tg.Encoder.NewSession().NOP()
	if err != nil {
		t.Fatal(err)
	}
	// The NOP must clear the acc and ram write enables (bits 27, 26).
	if nop&(1<<27) != 0 || nop&(1<<26) != 0 {
		t.Errorf("NOP %x enables a write", nop)
	}
}

func TestEncodeSingle(t *testing.T) {
	tg := target(t)
	// Load immediate: acc := IW[15:0] with value 42.
	in := findInstr(t, tg, "acc.r := IW[15:0]", code.Field{Hi: 15, Lo: 0, Val: 42})
	word, mode, err := tg.Encoder.NewSession().Encode([]*code.Instr{in})
	if err != nil {
		t.Fatal(err)
	}
	if mode != nil {
		t.Errorf("unexpected mode requirement %v", mode)
	}
	if word&0xFFFF != 42 {
		t.Errorf("imm field = %d", word&0xFFFF)
	}
	if word&(1<<27) == 0 {
		t.Error("acc.ld not set")
	}
	if word&(1<<28) == 0 {
		t.Error("imm source not selected")
	}
	if word&(1<<26) != 0 {
		t.Error("encoded word spuriously writes memory (quiescence violated)")
	}
}

func TestEncodeConflictingFields(t *testing.T) {
	tg := target(t)
	// Two acc writes in one word: condition conflict (same aluop bits must
	// take two values and acc written twice).
	a := findInstr(t, tg, "acc.r := IW[15:0]", code.Field{Hi: 15, Lo: 0, Val: 1})
	b := findInstr(t, tg, "acc.r := (acc.r + ram.m[IW[7:0]])", code.Field{Hi: 7, Lo: 0, Val: 3})
	if tg.Encoder.NewSession().Feasible([]*code.Instr{a, b}) {
		t.Error("two simultaneous acc writes encoded")
	}
	// Same instruction with two different immediate values.
	c := findInstr(t, tg, "acc.r := IW[15:0]", code.Field{Hi: 15, Lo: 0, Val: 2})
	if tg.Encoder.NewSession().Feasible([]*code.Instr{a, c}) {
		t.Error("conflicting operand fields encoded")
	}
}

func TestEncodeFieldContradictsCondition(t *testing.T) {
	tg := target(t)
	// The load-immediate template requires bmux.s (bit 28) = 1; forcing an
	// operand field value is fine, but a field on the *control* bits that
	// contradicts the condition must fail.  Simulate by adding a bogus
	// field covering bit 28 with value 0.
	in := findInstr(t, tg, "acc.r := IW[15:0]",
		code.Field{Hi: 15, Lo: 0, Val: 1},
		code.Field{Hi: 28, Lo: 28, Val: 0})
	if _, _, err := tg.Encoder.NewSession().Encode([]*code.Instr{in}); err == nil {
		t.Error("field contradicting the execution condition encoded")
	}
}

func TestFieldBeyondWidthRejected(t *testing.T) {
	tg := target(t)
	in := findInstr(t, tg, "acc.r := IW[15:0]", code.Field{Hi: 99, Lo: 90, Val: 1})
	if _, _, err := tg.Encoder.NewSession().Encode([]*code.Instr{in}); err == nil {
		t.Error("field beyond instruction width accepted")
	}
}

func TestParallelStoreAndUnrelatedFieldSharing(t *testing.T) {
	tg := target(t)
	// Store and an ALU op on acc cannot share a word here (store reads
	// acc while the op writes it is fine — WAR — but the store's address
	// field overlaps the immediate operand bits [7:0]).
	st := findInstr(t, tg, "ram.m[IW[7:0]] := acc.r", code.Field{Hi: 7, Lo: 0, Val: 5})
	add := findInstr(t, tg, "acc.r := (acc.r + IW[15:0])", code.Field{Hi: 15, Lo: 0, Val: 5})
	// Immediate 5 == address 5: the shared low bits agree, so this *is*
	// encodable.
	if !tg.Encoder.NewSession().Feasible([]*code.Instr{st, add}) {
		t.Error("compatible store+add rejected")
	}
	add2 := findInstr(t, tg, "acc.r := (acc.r + IW[15:0])", code.Field{Hi: 15, Lo: 0, Val: 9})
	if tg.Encoder.NewSession().Feasible([]*code.Instr{st, add2}) {
		t.Error("store+add with clashing low bits accepted")
	}
}

func TestEncodeProgramAndListing(t *testing.T) {
	tg := target(t)
	comp, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.CompileSource(context.Background(), `int x; int y; x = 7; y = x + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Code.Words {
		if !w.Encoded {
			t.Error("word left unencoded")
		}
	}
	lst := tg.Encoder.Listing(res.Code)
	if !strings.Contains(lst, "x = 7;") {
		t.Errorf("listing lacks source comments:\n%s", lst)
	}
	if len(strings.Split(strings.TrimSpace(lst), "\n")) != res.CodeLen() {
		t.Error("listing line count mismatch")
	}
}

// TestOverlaySizeCountsSetMemo checks that the session's memoised
// template-set conditions count toward OverlaySize, the figure the
// compiler's session pool bounds: one entry per distinct template set,
// whatever the order of its RTs or their fields, a single RT included,
// and none for a probe whose fields clash.
func TestOverlaySizeCountsSetMemo(t *testing.T) {
	tg := target(t)
	st := findInstr(t, tg, "ram.m[IW[7:0]] := acc.r", code.Field{Hi: 7, Lo: 0, Val: 5})
	st9 := findInstr(t, tg, "ram.m[IW[7:0]] := acc.r", code.Field{Hi: 7, Lo: 0, Val: 9})
	add := findInstr(t, tg, "acc.r := (acc.r + IW[15:0])", code.Field{Hi: 15, Lo: 0, Val: 5})
	add9 := findInstr(t, tg, "acc.r := (acc.r + IW[15:0])", code.Field{Hi: 15, Lo: 0, Val: 9})
	s := tg.Encoder.NewSession()
	for _, probe := range []struct {
		instrs []*code.Instr
		sets   int
	}{
		{[]*code.Instr{st}, 1},
		{[]*code.Instr{st9}, 1},
		{[]*code.Instr{st, add}, 2},
		{[]*code.Instr{add, st}, 2},
		{[]*code.Instr{st9, add9}, 2},
		{[]*code.Instr{st, add9}, 2},
		{[]*code.Instr{add, add}, 3},
	} {
		s.Feasible(probe.instrs)
		if s.SetCount() != probe.sets {
			t.Fatalf("after probing %v: %d memoised sets; want %d", probe.instrs, s.SetCount(), probe.sets)
		}
		if got, want := s.OverlaySize(), s.ViewSize()+s.SetCount(); got != want {
			t.Fatalf("OverlaySize = %d; want %d (view entries plus memoised sets)", got, want)
		}
	}
	// Encode's error path explains a field clash without building the
	// set's condition.
	if _, _, err := s.Encode([]*code.Instr{st, st9}); err == nil || s.SetCount() != 3 {
		t.Fatalf("Encode of a field clash: err %v, %d memoised sets; want an error and 3", err, s.SetCount())
	}
}
