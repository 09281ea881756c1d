package code

import (
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/rtl"
)

// newBase returns an empty base and its store, for the tests' trees.
func newBase() (*rtl.Base, *rtl.Store) {
	b := rtl.NewBase(bdd.New())
	return b, b.Exprs()
}

// tpl adds the template dest[destAddr] := src to b.
func tpl(b *rtl.Base, dest string, destAddr, src rtl.ExprID) *rtl.Template {
	return b.Add(&rtl.Template{Dest: dest, DestAddr: destAddr, Src: src, Width: 16,
		Cond: rtl.ExecCond{Static: b.BDD.True()}})
}

func imm(s *rtl.Store) rtl.ExprID {
	return s.Node(rtl.Expr{Kind: rtl.InsnField, Hi: 7, Lo: 0, Width: 8})
}

func reg(s *rtl.Store, name string, w int) rtl.ExprID { return s.Read(name, w, rtl.NoExpr) }

func TestFieldString(t *testing.T) {
	if (Field{Hi: 7, Lo: 0, Val: 5}).String() != "IW[7:0]=5" {
		t.Error("multi-bit field rendering")
	}
	if (Field{Hi: 3, Lo: 3, Val: 1}).String() != "IW[3]=1" {
		t.Error("single-bit field rendering")
	}
}

func TestInstrFieldsAndString(t *testing.T) {
	b, s := newBase()
	in := &Instr{
		Template: tpl(b, "acc.r", rtl.NoExpr, s.Read("ram.m", 16, imm(s))),
		Fields:   []Field{{Hi: 7, Lo: 0, Val: 9}},
	}
	if v, ok := in.FieldValue(7, 0); !ok || v != 9 {
		t.Error("FieldValue lookup")
	}
	if _, ok := in.FieldValue(15, 8); ok {
		t.Error("absent field found")
	}
	if !strings.Contains(in.String(), "IW[7:0]=9") {
		t.Errorf("rendering: %s", in)
	}
}

func TestDefAndUses(t *testing.T) {
	// ram[IW=5] := acc
	b, s := newBase()
	store := &Instr{
		Template: tpl(b, "ram.m", imm(s), reg(s, "acc.r", 16)),
		Fields:   []Field{{Hi: 7, Lo: 0, Val: 5}},
	}
	def := store.Def()
	if def.Storage != "ram.m" || !def.AddrKnown || def.Addr != 5 {
		t.Errorf("def = %v", def)
	}
	uses := store.Uses()
	if len(uses) != 1 || uses[0].Storage != "acc.r" {
		t.Errorf("uses = %v", uses)
	}
	// Register dest.
	load := &Instr{
		Template: tpl(b, "acc.r", rtl.NoExpr, s.Read("ram.m", 16, imm(s))),
		Fields:   []Field{{Hi: 7, Lo: 0, Val: 3}},
	}
	if d := load.Def(); d.Storage != "acc.r" || !d.AddrKnown {
		t.Errorf("reg def = %v", d)
	}
	u := load.Uses()
	if len(u) != 1 || u[0].Addr != 3 || !u[0].AddrKnown {
		t.Errorf("load uses = %v", u)
	}
	// Unknown address: read through a register.
	ind := &Instr{
		Template: tpl(b, "acc.r", rtl.NoExpr,
			s.Read("ram.m", 16, reg(s, "ar.r", 8))),
	}
	u2 := ind.Uses()
	foundUnknown := false
	for _, x := range u2 {
		if x.Storage == "ram.m" && !x.AddrKnown {
			foundUnknown = true
		}
	}
	if !foundUnknown {
		t.Errorf("indirect read uses = %v", u2)
	}
}

func TestLocOverlaps(t *testing.T) {
	a := Loc{Storage: "m", Addr: 1, AddrKnown: true}
	b := Loc{Storage: "m", Addr: 2, AddrKnown: true}
	c := Loc{Storage: "m"}
	d := Loc{Storage: "x", Addr: 1, AddrKnown: true}
	if a.Overlaps(b) {
		t.Error("distinct cells overlap")
	}
	if !a.Overlaps(c) || !c.Overlaps(b) {
		t.Error("unknown address must overlap")
	}
	if a.Overlaps(d) {
		t.Error("distinct storages overlap")
	}
	if !a.Overlaps(a) {
		t.Error("self overlap")
	}
}

func TestDependencies(t *testing.T) {
	b, s := newBase()
	load := tpl(b, "acc.r", rtl.NoExpr, s.Read("ram.m", 16, imm(s)))
	store := tpl(b, "ram.m", imm(s), reg(s, "acc.r", 16))
	load3 := &Instr{Template: load, Fields: []Field{{Hi: 7, Lo: 0, Val: 3}}}
	store3 := &Instr{Template: store, Fields: []Field{{Hi: 7, Lo: 0, Val: 3}}}
	store4 := &Instr{Template: store, Fields: []Field{{Hi: 7, Lo: 0, Val: 4}}}
	load4 := &Instr{Template: load, Fields: []Field{{Hi: 7, Lo: 0, Val: 4}}}

	// RAW: store3 then load3 (same cell).
	if !RAW(store3, load3) {
		t.Error("RAW on same cell missed")
	}
	if RAW(store4, load3) {
		t.Error("RAW on distinct cells reported")
	}
	// WAR: load3 then store3.
	if !WAR(load3, store3) {
		t.Error("WAR missed")
	}
	// WAW: two stores to the same cell.
	if !WAW(store3, store3) {
		t.Error("WAW missed")
	}
	if WAW(store3, store4) {
		t.Error("WAW on distinct cells reported")
	}
	// RAW through registers: load writes acc, store reads acc.
	if !RAW(load4, store4) {
		t.Error("register RAW missed")
	}
}

func TestSeqAndProgramRendering(t *testing.T) {
	b, st := newBase()
	s := &Seq{}
	in := &Instr{Template: tpl(b, "acc.r", rtl.NoExpr, st.Const(0, 16)), Comment: "x = 0;"}
	s.Append(in)
	if s.Len() != 1 {
		t.Error("Len")
	}
	if !strings.Contains(s.String(), "x = 0;") {
		t.Error("seq rendering lacks comment")
	}
	if got := s.Storages(); len(got) != 1 || got[0] != "acc.r" {
		t.Errorf("storages = %v", got)
	}
	p := &Program{Words: []*Word{{Instrs: []*Instr{in}, Bits: 0xAB, Encoded: true}}}
	if p.Len() != 1 {
		t.Error("program len")
	}
	if !strings.Contains(p.String(), "ab") {
		t.Errorf("program rendering: %s", p)
	}
	unenc := &Program{Words: []*Word{{Instrs: []*Instr{in}}}}
	if strings.Contains(unenc.String(), "0000000000000000") {
		t.Error("unencoded word rendered bits")
	}
}

func TestPortDef(t *testing.T) {
	b, s := newBase()
	in := &Instr{Template: b.Add(&rtl.Template{
		Dest: "out", DestPort: true, DestAddr: rtl.NoExpr, Width: 16,
		Src:  reg(s, "acc.r", 16),
		Cond: rtl.ExecCond{Static: b.BDD.True()},
	})}
	if d := in.Def(); d.Storage != "port:out" {
		t.Errorf("port def = %v", d)
	}
}

func TestDynamicGuardUses(t *testing.T) {
	b, s := newBase()
	in := &Instr{Template: b.Add(&rtl.Template{
		Dest: "pc.r", DestAddr: rtl.NoExpr, Width: 8,
		Src: imm(s),
		Cond: rtl.ExecCond{Static: b.BDD.True(),
			Dynamic: []rtl.ExprID{s.Op(rtl.OpEq, 1, reg(s, "flag.r", 1), s.Const(1, 1))}},
	})}
	found := false
	for _, u := range in.Uses() {
		if u.Storage == "flag.r" {
			found = true
		}
	}
	if !found {
		t.Error("dynamic guard read not in Uses")
	}
}
