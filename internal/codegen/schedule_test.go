package codegen

import (
	"slices"
	"testing"

	"repro/internal/bdd"
	"repro/internal/code"
	"repro/internal/rtl"
)

// TestScheduleFiveOperands schedules a step with more operands than
// schedule permutes: their order stays as given, and the operand whose
// register a later operand's code writes is spilled.  Swapping the first
// two operands would avoid that clobber; a four-operand order that did so
// once replaced the five-operand one, and the spill pass then indexed past
// its end.
func TestScheduleFiveOperands(t *testing.T) {
	base := rtl.NewBase(bdd.New())
	write := func(dest string) []*code.Instr {
		return []*code.Instr{{Template: base.Add(&rtl.Template{Dest: dest, DestAddr: rtl.NoExpr,
			Src: base.Exprs().Const(0, 16), Cond: rtl.ExecCond{Static: base.BDD.True()}})}}
	}
	kidCode := [][]*code.Instr{write("x"), write("x"), write("c"), write("d"), write("e")}
	kidReg := []string{"x", "a", "c", "d", "e"}
	spilled := make([]bool, len(kidCode))
	order, err := schedule(kidCode, kidReg, spilled)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("order %v; want %v", order, want)
	}
	if want := []bool{true, false, false, false, false}; !slices.Equal(spilled, want) {
		t.Fatalf("spilled %v; want %v", spilled, want)
	}
}
