package grammar

import (
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/rtl"
)

func buildTestGrammar(t *testing.T) (*Grammar, *rtl.Base) {
	t.Helper()
	m := bdd.New()
	base := rtl.NewBase(m)
	add := func(tpl *rtl.Template) {
		tpl.Cond = rtl.ExecCond{Static: m.True()}
		tpl.Width = 8
		base.Add(tpl)
	}
	imm := rtl.NewInsnField(3, 0)
	add(&rtl.Template{Dest: "acc.r",
		Src: rtl.NewOp(rtl.OpAdd, 8,
			rtl.NewRead("acc.r", 8, nil),
			rtl.NewRead("ram.m", 8, imm))})
	add(&rtl.Template{Dest: "acc.r", Src: rtl.NewConst(0, 8)}) // hardwired clear
	add(&rtl.Template{Dest: "out", Src: rtl.NewRead("acc.r", 8, nil)})
	add(&rtl.Template{Dest: "acc.r",
		Src: rtl.NewSlice(7, 0, rtl.NewOp(rtl.OpMul, 16,
			rtl.NewRead("x.r", 16, nil), rtl.NewRead("x.r", 16, nil)))})
	add(&rtl.Template{Dest: "acc.r", Src: rtl.NewPort("pin", 8)})

	spec := Spec{
		Storages: []StorageInfo{
			{Name: "acc.r", Width: 8, Size: 1},
			{Name: "x.r", Width: 16, Size: 1},
			{Name: "ram.m", Width: 8, Size: 16},
		},
		OutPorts: []string{"out"},
	}
	g, err := Build(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	return g, base
}

func TestBuildBasics(t *testing.T) {
	g, _ := buildTestGrammar(t)
	// START + acc.r + x.r + ram.m + out.
	if g.NumNT() != 5 {
		t.Fatalf("NTs = %d (%v)", g.NumNT(), g.NTNames)
	}
	if g.NTNames[START] != "START" {
		t.Error("NT 0 must be START")
	}
	st := g.Stats()
	if st.StartRules != 4 { // 3 storages + 1 port
		t.Errorf("start rules = %d", st.StartRules)
	}
	if st.RTRules != 5 {
		t.Errorf("rt rules = %d", st.RTRules)
	}
	if st.StopRules != 2 { // acc.r and x.r (ram.m is addressable)
		t.Errorf("stop rules = %d", st.StopRules)
	}
}

func TestStartRuleCosts(t *testing.T) {
	g, _ := buildTestGrammar(t)
	for dest, r := range g.StartRules {
		if r.Cost != 0 {
			t.Errorf("start rule for %s has cost %d", dest, r.Cost)
		}
		if r.Kind != KindStart {
			t.Errorf("start rule for %s has kind %v", dest, r.Kind)
		}
	}
	if _, ok := g.StartRules["out"]; !ok {
		t.Error("primary output port must have a start rule")
	}
}

func TestRTCostsAndStopCosts(t *testing.T) {
	g, _ := buildTestGrammar(t)
	for _, r := range g.Rules {
		switch r.Kind {
		case KindRT:
			if r.Cost != 1 {
				t.Errorf("RT rule %s cost %d", r, r.Cost)
			}
			if r.Template == nil {
				t.Errorf("RT rule %s lost its template", r)
			}
		case KindStop:
			if r.Cost != 0 {
				t.Errorf("stop rule %s cost %d", r, r.Cost)
			}
		}
	}
}

func TestPatternLowering(t *testing.T) {
	g, _ := buildTestGrammar(t)
	// Find the MAC-ish rule and inspect its pattern.
	var mac *Rule
	for _, r := range g.Rules {
		if r.Kind == KindRT && r.Pat.Kind == PatOp && r.Pat.Op == rtl.OpAdd {
			mac = r
		}
	}
	if mac == nil {
		t.Fatal("add rule missing")
	}
	if mac.Pat.Kids[0].Kind != PatNT || g.NTNames[mac.Pat.Kids[0].NT] != "acc.r" {
		t.Errorf("left kid = %+v", mac.Pat.Kids[0])
	}
	right := mac.Pat.Kids[1]
	if right.Kind != PatMem || right.Storage != "ram.m" {
		t.Fatalf("right kid = %+v", right)
	}
	if right.Kids[0].Kind != PatImm || right.Kids[0].ImmHi != 3 {
		t.Errorf("address pattern = %+v", right.Kids[0])
	}
}

// TestSubjectTerms checks which rule bucket each subject node kind finds:
// constants and instruction fields share the immediates' terminal, reads
// split into registers and memories, and a node no rule's root can match
// finds none.
func TestSubjectTerms(t *testing.T) {
	g, _ := buildTestGrammar(t)
	acc := rtl.NewRead("acc.r", 8, nil)
	mul := rtl.NewOp(rtl.OpMul, 16, rtl.NewRead("x.r", 16, nil), rtl.NewRead("x.r", 16, nil))
	roots := func(e *rtl.Expr) string {
		id := g.SubjectTerm(e)
		if id < 0 {
			return "none"
		}
		var b strings.Builder
		for _, r := range g.RulesByTerm[id] {
			b.WriteString(g.patString(r.Pat))
			b.WriteByte(';')
		}
		return b.String()
	}
	cases := []struct {
		e    *rtl.Expr
		want string
	}{
		{rtl.NewOp(rtl.OpAdd, 8, acc, acc), "(acc.r + ram.m[IMM[3:0]]);"},
		{rtl.NewOp(rtl.OpAdd, 16, acc, acc), "none"}, // widths tell operators apart
		{rtl.NewOp(rtl.OpSub, 8, acc, acc), "none"},
		{acc, "acc.r;"},
		{rtl.NewRead("ram.m", 8, rtl.NewConst(1, 4)), ""},
		{rtl.NewConst(7, 8), "0;"},
		{rtl.NewInsnField(3, 0), "0;"},
		{rtl.NewPort("pin", 8), "pin;"},
		{&rtl.Expr{Kind: rtl.Slice, Hi: 7, Lo: 0, Width: 8, Kids: []*rtl.Expr{mul}}, "(x.r * x.r)[7:0];"},
		{&rtl.Expr{Kind: rtl.ExprKind(99)}, "none"},
	}
	for i, c := range cases {
		if got := roots(c.e); got != c.want {
			t.Errorf("case %d (%s): rules %q, want %q", i, c.e, got, c.want)
		}
	}
	if g.SubjectTerm(rtl.NewConst(7, 8)) != g.SubjectTerm(rtl.NewInsnField(3, 0)) {
		t.Error("constants and instruction fields must share a terminal")
	}
}

func TestMatchesLeaf(t *testing.T) {
	imm := &Pat{Kind: PatImm, ImmHi: 3, ImmLo: 0, Width: 4}
	if !imm.MatchesLeaf(rtl.NewConst(15, 8)) {
		t.Error("15 must fit a 4-bit field")
	}
	if imm.MatchesLeaf(rtl.NewConst(16, 8)) {
		t.Error("16 must not fit a 4-bit field")
	}
	if !imm.MatchesLeaf(rtl.NewConst(-8, 8)) {
		t.Error("-8 must fit signed 4-bit")
	}
	hc := &Pat{Kind: PatConst, Val: 0, Width: 8}
	if !hc.MatchesLeaf(rtl.NewConst(0, 8)) || hc.MatchesLeaf(rtl.NewConst(1, 8)) {
		t.Error("hardwired const matching wrong")
	}
	reg := &Pat{Kind: PatReg, Storage: "acc.r"}
	if !reg.MatchesLeaf(rtl.NewRead("acc.r", 8, nil)) {
		t.Error("reg leaf must match")
	}
	if reg.MatchesLeaf(rtl.NewRead("acc.r", 8, rtl.NewConst(0, 4))) {
		t.Error("reg pattern matched addressable read")
	}
	op := &Pat{Kind: PatOp, Op: rtl.OpAdd, Width: 8,
		Kids: []*Pat{{Kind: PatNT}, {Kind: PatNT}}}
	if op.MatchesLeaf(rtl.NewOp(rtl.OpAdd, 16, rtl.NewConst(0, 16), rtl.NewConst(0, 16))) {
		t.Error("width mismatch must fail")
	}
}

func TestUnknownStorageRejected(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	base.Add(&rtl.Template{Dest: "acc.r", Width: 8,
		Src:  rtl.NewRead("ghost.r", 8, nil),
		Cond: rtl.ExecCond{Static: m.True()}})
	spec := Spec{Storages: []StorageInfo{{Name: "acc.r", Width: 8, Size: 1}}}
	if _, err := Build(base, spec); err == nil || !strings.Contains(err.Error(), "ghost.r") {
		t.Fatalf("expected unknown-storage error, got %v", err)
	}
}

func TestTemplateWithUnknownDestSkipped(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	base.Add(&rtl.Template{Dest: "pc.r", Width: 8,
		Src:  rtl.NewConst(0, 8),
		Cond: rtl.ExecCond{Static: m.True()}})
	spec := Spec{Storages: []StorageInfo{{Name: "acc.r", Width: 8, Size: 1}}}
	g, err := Build(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats().RTRules != 0 {
		t.Error("template with out-of-spec destination must be skipped")
	}
}

func TestGrammarRendering(t *testing.T) {
	g, _ := buildTestGrammar(t)
	s := g.String()
	for _, want := range []string{"START", "ASSIGN", "acc.r", "ram.m[IMM[3:0]]", "[0]", "[1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
