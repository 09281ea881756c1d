package asm_test

import (
	"testing"

	"repro/internal/code"
)

// TestEncodeErrorTexts pins the text of every way Encode can refuse a
// word, and checks each against the reference conjunction's.  Feasible
// builds none of these texts; only Encode does, so nothing else would
// notice one changing.
func TestEncodeErrorTexts(t *testing.T) {
	tg := target(t)
	imm := func(fields ...code.Field) *code.Instr {
		return findInstr(t, tg, "acc.r := IW[15:0]", fields...)
	}
	for _, tc := range []struct {
		name   string
		instrs []*code.Instr
		want   string
	}{
		{"width", []*code.Instr{imm(code.Field{Hi: 99, Lo: 90, Val: 1})},
			"asm: field IW[99:90]=1 exceeds instruction width 32"},
		{"field clash", []*code.Instr{imm(code.Field{Hi: 15, Lo: 0, Val: 1}), imm(code.Field{Hi: 15, Lo: 0, Val: 2})},
			"asm: operand fields conflict at instruction bit 0"},
		{"conditions", []*code.Instr{imm(code.Field{Hi: 15, Lo: 0, Val: 1}),
			findInstr(t, tg, "acc.r := (acc.r + ram.m[IW[7:0]])", code.Field{Hi: 7, Lo: 0, Val: 3})},
			"asm: conflicting execution conditions (instruction encoding conflict)"},
		// Bit 28 selects the immediate, which the template needs set.
		{"fields against conditions", []*code.Instr{imm(code.Field{Hi: 15, Lo: 0, Val: 1}, code.Field{Hi: 28, Lo: 28, Val: 0})},
			"asm: operand fields contradict execution conditions"},
		// Bit 26 is ram's write enable: a word of two RTs that pins it
		// writes ram, which neither RT does.
		{"quiescence", []*code.Instr{imm(code.Field{Hi: 26, Lo: 26, Val: 1}), imm()},
			"asm: cannot encode word without disturbing ram.m"},
	} {
		s := tg.Encoder.NewSession()
		_, _, err := s.Encode(tc.instrs)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Encode error %v; want %q", tc.name, err, tc.want)
		}
		if _, ref := s.RefWordCond(tc.instrs); ref == nil || err == nil || ref.Error() != err.Error() {
			t.Errorf("%s: Encode error %v; the reference conjunction's is %v", tc.name, err, ref)
		}
		if s.Feasible(tc.instrs) {
			t.Errorf("%s: Feasible accepts a word Encode refuses", tc.name)
		}
	}
}
