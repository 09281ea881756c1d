package grammar

import (
	"reflect"
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
	for nt, ri := range g.StartRules {
		if ri < 0 {
			if nt != START {
				t.Errorf("destination %s has no start rule", g.NTNames[nt])
			}
			continue
		}
		r := g.Rules[ri]
		if r.Cost != 0 {
			t.Errorf("start rule for %s has cost %d", g.NTNames[nt], r.Cost)
		}
		if r.Kind != KindStart || r.Dest != int32(nt) {
			t.Errorf("start rule for %s has kind %v, destination %d", g.NTNames[nt], r.Kind, r.Dest)
		}
	}
	if g.StartRules[g.NT("out")] < 0 {
		t.Error("primary output port must have a start rule")
	}
}

func TestRTCostsAndStopCosts(t *testing.T) {
	g, _ := buildTestGrammar(t)
	for i := range g.Rules {
		r := &g.Rules[i]
		switch r.Kind {
		case KindRT:
			if r.Cost != 1 {
				t.Errorf("RT rule %s cost %d", g.Pattern(r), r.Cost)
			}
			if g.Template(r) == nil {
				t.Errorf("RT rule %s lost its template", g.Pattern(r))
			}
		case KindStop:
			if r.Cost != 0 {
				t.Errorf("stop rule %s cost %d", g.Pattern(r), r.Cost)
			}
		}
	}
}

func TestPatternLowering(t *testing.T) {
	g, _ := buildTestGrammar(t)
	// Find the MAC-ish rule and inspect its pattern, handle by handle.
	var mac *Rule
	for i := range g.Rules {
		r := &g.Rules[i]
		if r.Kind == KindRT && g.Exprs().Expr(r.Pat).Op == rtl.OpAdd {
			mac = r
		}
	}
	if mac == nil {
		t.Fatal("add rule missing")
	}
	if mac.Pat != g.Template(mac).SrcID() || mac.Term != g.PatTerm(mac.Pat) || mac.Term < 0 {
		t.Errorf("add rule: pattern %d, terminal %d; template source %d", mac.Pat, mac.Term, g.Template(mac).SrcID())
	}
	kids := g.Exprs().Kids(mac.Pat)
	if nt := g.PatNT(kids[0]); nt == 0 || g.NTNames[nt] != "acc.r" || g.PatTerm(kids[0]) != -1 {
		t.Errorf("left kid = %s, nonterminal %d", g.Exprs().Expr(kids[0]), nt)
	}
	right := g.Exprs().Expr(kids[1])
	if g.PatNT(kids[1]) != 0 || right.Kind != rtl.Read || right.Storage != "ram.m" || g.PatTerm(kids[1]) < 0 {
		t.Fatalf("right kid = %s", right)
	}
	addr := g.Exprs().Kids(kids[1])[0]
	if e := g.Exprs().Expr(addr); e.Kind != rtl.InsnField || e.Hi != 3 || g.PatTerm(addr) < 0 {
		t.Errorf("address pattern = %s", e)
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
		for _, ri := range g.RulesByTerm[id] {
			b.WriteString(g.Pattern(&g.Rules[ri]))
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

// TestMatchesLeaf checks the leaf-level agreement a pattern node and a
// subject node need: their terminal IDs, and a field fit for immediates.
func TestMatchesLeaf(t *testing.T) {
	if !FitsField(15, 4) {
		t.Error("15 must fit a 4-bit field")
	}
	if FitsField(16, 4) {
		t.Error("16 must not fit a 4-bit field")
	}
	if !FitsField(-8, 4) || FitsField(-9, 4) {
		t.Error("-8 must fit signed 4-bit, -9 must not")
	}
	g, _ := buildTestGrammar(t)
	termOfRule := func(kind RuleKind, pattern string) int32 {
		for i := range g.Rules {
			if r := &g.Rules[i]; r.Kind == kind && g.Pattern(r) == pattern {
				return r.Term
			}
		}
		t.Fatalf("no %v rule %s", kind, pattern)
		return -1
	}
	// The hardwired clear and every program constant share a terminal;
	// the parser compares their values.
	if c := termOfRule(KindRT, "0"); g.SubjectTerm(rtl.NewConst(1, 8)) != c || c < 0 {
		t.Error("a constant must find the hardwired constant's terminal")
	}
	reg := termOfRule(KindStop, "acc.r")
	if g.SubjectTerm(rtl.NewRead("acc.r", 8, nil)) != reg {
		t.Error("a register read must find its stop rule's terminal")
	}
	if g.SubjectTerm(rtl.NewRead("acc.r", 8, rtl.NewConst(0, 4))) == reg {
		t.Error("an addressable read found the register's terminal")
	}
	add := termOfRule(KindRT, "(acc.r + ram.m[IMM[3:0]])")
	if g.SubjectTerm(rtl.NewOp(rtl.OpAdd, 16, rtl.NewConst(0, 16), rtl.NewConst(0, 16))) == add {
		t.Error("a 16-bit add found the 8-bit add's terminal")
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

// TestRuleHoldsNoPointer keeps Rule pointer-free, so a grammar's rule
// array is one allocation the garbage collector never scans: no field,
// however nested, may be a pointer, string, slice, map or other
// reference.
func TestRuleHoldsNoPointer(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: Rule must hold no pointer", path, typ.Kind())
		}
	}
	check("Rule", reflect.TypeOf(Rule{}))
}
