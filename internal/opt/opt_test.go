package opt

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/code"
	"repro/internal/rtl"
)

// Test fixtures: a tiny accumulator machine's worth of templates.
type fixture struct {
	m     *bdd.Manager
	load  *rtl.Template // acc := mem[IW]
	store *rtl.Template // mem[IW] := acc
	add   *rtl.Template // acc := acc + mem[IW]
	tld   *rtl.Template // t := mem[IW]
}

func newFixture() *fixture {
	m := bdd.New()
	b := rtl.NewBase(m)
	s := b.Exprs()
	add := func(dest string, addr, src rtl.ExprID) *rtl.Template {
		return b.Add(&rtl.Template{Dest: dest, DestAddr: addr, Src: src, Width: 16,
			Cond: rtl.ExecCond{Static: m.True()}})
	}
	imm := s.Node(rtl.Expr{Kind: rtl.InsnField, Hi: 7, Lo: 0, Width: 8})
	mem, acc := s.Read("mem.m", 16, imm), s.Read("acc.r", 16, rtl.NoExpr)
	return &fixture{
		m:     m,
		load:  add("acc.r", rtl.NoExpr, mem),
		store: add("mem.m", imm, acc),
		add:   add("acc.r", rtl.NoExpr, s.Op(rtl.OpAdd, 16, acc, mem)),
		tld:   add("t.r", rtl.NoExpr, mem),
	}
}

func instr(t *rtl.Template, addr int64) *code.Instr {
	return &code.Instr{Template: t, Fields: []code.Field{{Hi: 7, Lo: 0, Val: addr}}}
}

func seqOf(instrs ...*code.Instr) *code.Seq {
	s := &code.Seq{}
	for _, in := range instrs {
		s.Append(in)
	}
	return s
}

func TestRedundantLoadAfterStore(t *testing.T) {
	f := newFixture()
	// acc := mem[3]; mem[5] := acc; acc := mem[5]  -> reload removed
	s := seqOf(instr(f.load, 3), instr(f.store, 5), instr(f.load, 5))
	out, st := Optimize(s)
	if st.LoadsRemoved != 1 {
		t.Fatalf("loads removed = %d, want 1", st.LoadsRemoved)
	}
	if out.Len() != 2 {
		t.Fatalf("len = %d:\n%s", out.Len(), out)
	}
}

func TestRedundantLoadAfterLoad(t *testing.T) {
	f := newFixture()
	s := seqOf(instr(f.load, 3), instr(f.load, 3))
	out, st := Optimize(s)
	if st.LoadsRemoved != 1 || out.Len() != 1 {
		t.Fatalf("removed=%d len=%d", st.LoadsRemoved, out.Len())
	}
}

func TestLoadNotRemovedAfterClobber(t *testing.T) {
	f := newFixture()
	// acc := mem[3]; acc := acc + mem[4]; acc := mem[3]  -> keep reload
	s := seqOf(instr(f.load, 3), instr(f.add, 4), instr(f.load, 3))
	out, st := Optimize(s)
	if st.LoadsRemoved != 0 || out.Len() != 3 {
		t.Fatalf("removed=%d len=%d:\n%s", st.LoadsRemoved, out.Len(), out)
	}
}

func TestLoadNotRemovedAfterMemWrite(t *testing.T) {
	f := newFixture()
	// acc := mem[3]; t := mem[3]; mem[3] := acc ... t load of same cell ok;
	// then a store to cell 3 invalidates the t fact.
	s := seqOf(instr(f.load, 3), instr(f.store, 3), instr(f.load, 3))
	out, st := Optimize(s)
	// The final load is redundant: mem[3] := acc re-establishes acc==mem[3].
	if st.LoadsRemoved != 1 {
		t.Fatalf("removed=%d:\n%s", st.LoadsRemoved, out)
	}
	// But a load into a different register after the same cell is rewritten
	// by a non-mirrored value must stay.
	s2 := seqOf(instr(f.tld, 3), instr(f.load, 9), instr(f.store, 3), instr(f.tld, 3))
	out2, st2 := Optimize(s2)
	want := 4 // t := mem[3] fact dies when mem[3] is overwritten by acc
	if out2.Len() != want || st2.LoadsRemoved != 0 {
		t.Fatalf("len=%d removed=%d:\n%s", out2.Len(), st2.LoadsRemoved, out2)
	}
}

func TestDeadStoreRemoved(t *testing.T) {
	f := newFixture()
	// mem[5] := acc; acc := mem[2]; mem[5] := acc  -> first store dead
	s := seqOf(instr(f.store, 5), instr(f.load, 2), instr(f.store, 5))
	out, st := Optimize(s)
	if st.StoresRemoved != 1 || out.Len() != 2 {
		t.Fatalf("removed=%d len=%d:\n%s", st.StoresRemoved, out.Len(), out)
	}
}

func TestStoreKeptWhenRead(t *testing.T) {
	f := newFixture()
	// mem[5] := acc; acc := acc + mem[5]; mem[5] := acc  -> all kept... the
	// reload is via add (reads mem[5]) so the first store is live.
	s := seqOf(instr(f.store, 5), instr(f.add, 5), instr(f.store, 5))
	out, st := Optimize(s)
	if st.StoresRemoved != 0 || out.Len() != 3 {
		t.Fatalf("removed=%d len=%d:\n%s", st.StoresRemoved, out.Len(), out)
	}
}

func TestFinalStoreAlwaysKept(t *testing.T) {
	f := newFixture()
	s := seqOf(instr(f.load, 1), instr(f.store, 5))
	out, st := Optimize(s)
	if st.StoresRemoved != 0 || out.Len() != 2 {
		t.Fatalf("live-out store removed: %d len=%d", st.StoresRemoved, out.Len())
	}
}

func TestMacPatternShrinks(t *testing.T) {
	f := newFixture()
	// Three taps of: acc := mem[s]; acc := acc + mem[k]; mem[s] := acc.
	var ins []*code.Instr
	ins = append(ins, instr(f.load, 10), instr(f.add, 20), instr(f.store, 10))
	ins = append(ins, instr(f.load, 10), instr(f.add, 21), instr(f.store, 10))
	ins = append(ins, instr(f.load, 10), instr(f.add, 22), instr(f.store, 10))
	out, st := Optimize(seqOf(ins...))
	// Reloads of s removed (2), intermediate stores dead (2):
	// load, add, add, add, store.
	if out.Len() != 5 {
		t.Fatalf("len = %d (loads-removed=%d stores-removed=%d):\n%s",
			out.Len(), st.LoadsRemoved, st.StoresRemoved, out)
	}
}

func TestFixpointIteration(t *testing.T) {
	f := newFixture()
	// Removing the reload exposes the dead store on the next pass.
	s := seqOf(instr(f.store, 5), instr(f.load, 5), instr(f.store, 5))
	out, st := Optimize(s)
	if out.Len() != 1 {
		t.Fatalf("len = %d (%+v):\n%s", out.Len(), st, out)
	}
	if st.Passes < 2 {
		t.Errorf("expected at least 2 passes, got %d", st.Passes)
	}
}

func TestEmptySeq(t *testing.T) {
	out, st := Optimize(&code.Seq{})
	if out.Len() != 0 || st.LoadsRemoved != 0 || st.StoresRemoved != 0 {
		t.Fatal("empty sequence mishandled")
	}
}
