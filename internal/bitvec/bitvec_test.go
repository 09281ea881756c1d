package bitvec

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

const w = 8 // word width used throughout concrete/symbolic cross checks

// evalConst evaluates a symbolic vector built from two symbolic operands at
// concrete values of those operands.
func operands(m *bdd.Manager) (a, b Vec) {
	a = Vars(m, "a", w)
	b = Vars(m, "b", w)
	return
}

func assignFor(av, bv uint8) map[int]bool {
	assign := make(map[int]bool)
	for i := 0; i < w; i++ {
		assign[i] = av&(1<<uint(i)) != 0   // a0..a7 declared first
		assign[w+i] = bv&(1<<uint(i)) != 0 // then b0..b7
	}
	return assign
}

// checkBinary cross-checks a symbolic binary vector op against a concrete
// reference on random operand values.
func checkBinary(t *testing.T, name string,
	sym func(m *bdd.Manager, a, b Vec) Vec, ref func(a, b uint8) uint8) {
	t.Helper()
	m := bdd.New()
	a, b := operands(m)
	r := sym(m, a, b)
	if r.Width() != w {
		t.Fatalf("%s: result width %d, want %d", name, r.Width(), w)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		av, bv := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		got := uint8(Eval(m, r, assignFor(av, bv)))
		if want := ref(av, bv); got != want {
			t.Fatalf("%s(%d,%d) = %d, want %d", name, av, bv, got, want)
		}
	}
}

func checkPredicate(t *testing.T, name string,
	sym func(m *bdd.Manager, a, b Vec) bdd.Node, ref func(a, b uint8) bool) {
	t.Helper()
	m := bdd.New()
	a, b := operands(m)
	p := sym(m, a, b)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		av, bv := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		if got, want := m.Eval(p, assignFor(av, bv)), ref(av, bv); got != want {
			t.Fatalf("%s(%d,%d) = %v, want %v", name, av, bv, got, want)
		}
	}
}

func TestAdd(t *testing.T) {
	checkBinary(t, "Add", Add, func(a, b uint8) uint8 { return a + b })
}

func TestSub(t *testing.T) {
	checkBinary(t, "Sub", Sub, func(a, b uint8) uint8 { return a - b })
}

func TestMul(t *testing.T) {
	checkBinary(t, "Mul", Mul, func(a, b uint8) uint8 { return a * b })
}

func TestBitwise(t *testing.T) {
	checkBinary(t, "And", And, func(a, b uint8) uint8 { return a & b })
	checkBinary(t, "Or", Or, func(a, b uint8) uint8 { return a | b })
	checkBinary(t, "Xor", Xor, func(a, b uint8) uint8 { return a ^ b })
}

func TestNotNeg(t *testing.T) {
	checkBinary(t, "Not", func(m *bdd.Manager, a, b Vec) Vec { return Not(m, a) },
		func(a, b uint8) uint8 { return ^a })
	checkBinary(t, "Neg", func(m *bdd.Manager, a, b Vec) Vec { return Neg(m, a) },
		func(a, b uint8) uint8 { return -a })
}

func TestShifts(t *testing.T) {
	for k := 0; k < w; k++ {
		k := k
		checkBinary(t, "Shl", func(m *bdd.Manager, a, b Vec) Vec { return ShlConst(m, a, k) },
			func(a, b uint8) uint8 { return a << uint(k) })
		checkBinary(t, "Shr", func(m *bdd.Manager, a, b Vec) Vec { return ShrConst(m, a, k) },
			func(a, b uint8) uint8 { return a >> uint(k) })
		checkBinary(t, "Ashr", func(m *bdd.Manager, a, b Vec) Vec { return AshrConst(m, a, k) },
			func(a, b uint8) uint8 { return uint8(int8(a) >> uint(k)) })
	}
}

func TestPredicates(t *testing.T) {
	checkPredicate(t, "Eq", Eq, func(a, b uint8) bool { return a == b })
	checkPredicate(t, "Ult", Ult, func(a, b uint8) bool { return a < b })
	checkPredicate(t, "IsZero",
		func(m *bdd.Manager, a, b Vec) bdd.Node { return IsZero(m, a) },
		func(a, b uint8) bool { return a == 0 })
}

func TestEqConst(t *testing.T) {
	m := bdd.New()
	a := Vars(m, "a", 4)
	p := EqConst(m, a, 5)
	for v := 0; v < 16; v++ {
		assign := make(map[int]bool)
		for i := 0; i < 4; i++ {
			assign[i] = v&(1<<uint(i)) != 0
		}
		if got := m.Eval(p, assign); got != (v == 5) {
			t.Fatalf("EqConst(5) at %d = %v", v, got)
		}
	}
}

func TestConstAndIsConst(t *testing.T) {
	m := bdd.New()
	v := Const(m, 0xA5, 8)
	if val, ok := IsConst(m, v); !ok || val != 0xA5 {
		t.Fatalf("IsConst(Const(0xA5)) = %d,%v", val, ok)
	}
	if _, ok := IsConst(m, Vars(m, "x", 2)); ok {
		t.Fatal("variable vector reported constant")
	}
	// Negative constants wrap in two's complement.
	n := Const(m, -1, 8)
	if val, _ := IsConst(m, n); val != 0xFF {
		t.Fatalf("Const(-1,8) = %#x", val)
	}
}

func TestMux(t *testing.T) {
	m := bdd.New()
	s := m.Var(m.DeclareVar("s"))
	a := Const(m, 0x0F, 8)
	b := Const(m, 0xF0, 8)
	r := Mux(m, s, a, b)
	if got := Eval(m, r, map[int]bool{0: true}); got != 0x0F {
		t.Fatalf("Mux sel=1 = %#x", got)
	}
	if got := Eval(m, r, map[int]bool{0: false}); got != 0xF0 {
		t.Fatalf("Mux sel=0 = %#x", got)
	}
}

func TestSliceConcat(t *testing.T) {
	m := bdd.New()
	v := Const(m, 0xB7, 8) // 1011_0111
	hi := Slice(v, 7, 4)
	lo := Slice(v, 3, 0)
	if val, _ := IsConst(m, hi); val != 0xB {
		t.Fatalf("hi nibble = %#x", val)
	}
	if val, _ := IsConst(m, lo); val != 0x7 {
		t.Fatalf("lo nibble = %#x", val)
	}
}

func TestTruthAndBool(t *testing.T) {
	m := bdd.New()
	if Truth(m, Vec{}) != m.False() {
		t.Error("Truth of empty vector must be false")
	}
	x := m.Var(0)
	if Truth(m, Bool(x)) != x {
		t.Error("Truth(Bool(x)) != x")
	}
	if Truth(m, Const(m, 2, 2)) != m.False() {
		t.Error("Truth uses bit 0")
	}
}

// TestAddSubRoundTrip: (a+b)-b == a symbolically (pointer equality per bit).
func TestAddSubRoundTrip(t *testing.T) {
	m := bdd.New()
	a, b := operands(m)
	r := Sub(m, Add(m, a, b), b)
	for i := range a {
		if r[i] != a[i] {
			t.Fatalf("bit %d of (a+b)-b differs from a", i)
		}
	}
}
