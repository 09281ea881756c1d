package code

import (
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/rtl"
)

func tpl(dest string, destAddr *rtl.Expr, src *rtl.Expr) *rtl.Template {
	m := bdd.New()
	return &rtl.Template{Dest: dest, DestAddr: destAddr, Src: src, Width: 16,
		Cond: rtl.ExecCond{Static: m.True()}}
}

func imm() *rtl.Expr { return rtl.NewInsnField(7, 0) }

func TestFieldString(t *testing.T) {
	if (Field{Hi: 7, Lo: 0, Val: 5}).String() != "IW[7:0]=5" {
		t.Error("multi-bit field rendering")
	}
	if (Field{Hi: 3, Lo: 3, Val: 1}).String() != "IW[3]=1" {
		t.Error("single-bit field rendering")
	}
}

func TestInstrFieldsAndString(t *testing.T) {
	in := &Instr{
		Template: tpl("acc.r", nil, rtl.NewRead("ram.m", 16, imm())),
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
	store := &Instr{
		Template: tpl("ram.m", imm(), rtl.NewRead("acc.r", 16, nil)),
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
		Template: tpl("acc.r", nil, rtl.NewRead("ram.m", 16, imm())),
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
		Template: tpl("acc.r", nil,
			rtl.NewRead("ram.m", 16, rtl.NewRead("ar.r", 8, nil))),
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
	load3 := &Instr{Template: tpl("acc.r", nil, rtl.NewRead("ram.m", 16, imm())),
		Fields: []Field{{Hi: 7, Lo: 0, Val: 3}}}
	store3 := &Instr{Template: tpl("ram.m", imm(), rtl.NewRead("acc.r", 16, nil)),
		Fields: []Field{{Hi: 7, Lo: 0, Val: 3}}}
	store4 := &Instr{Template: tpl("ram.m", imm(), rtl.NewRead("acc.r", 16, nil)),
		Fields: []Field{{Hi: 7, Lo: 0, Val: 4}}}
	load4 := &Instr{Template: tpl("acc.r", nil, rtl.NewRead("ram.m", 16, imm())),
		Fields: []Field{{Hi: 7, Lo: 0, Val: 4}}}

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
	s := &Seq{}
	in := &Instr{Template: tpl("acc.r", nil, rtl.NewConst(0, 16)), Comment: "x = 0;"}
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
	m := bdd.New()
	in := &Instr{Template: &rtl.Template{
		Dest: "out", DestPort: true, Width: 16,
		Src:  rtl.NewRead("acc.r", 16, nil),
		Cond: rtl.ExecCond{Static: m.True()},
	}}
	if d := in.Def(); d.Storage != "port:out" {
		t.Errorf("port def = %v", d)
	}
}

func TestDynamicGuardUses(t *testing.T) {
	m := bdd.New()
	in := &Instr{Template: &rtl.Template{
		Dest: "pc.r", Width: 8,
		Src: rtl.NewInsnField(7, 0),
		Cond: rtl.ExecCond{Static: m.True(),
			Dynamic: []*rtl.Expr{rtl.NewOp(rtl.OpEq, 1,
				rtl.NewRead("flag.r", 1, nil), rtl.NewConst(1, 1))}},
	}}
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
