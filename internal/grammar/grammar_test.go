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
	s := base.Exprs()
	add := func(dest string, src rtl.ExprID) {
		base.Add(&rtl.Template{Dest: dest, DestAddr: rtl.NoExpr, Src: src, Width: 8,
			Cond: rtl.ExecCond{Static: m.True()}})
	}
	add("acc.r", s.Op(rtl.OpAdd, 8,
		s.Read("acc.r", 8, rtl.NoExpr),
		s.Read("ram.m", 8, field(s, 3, 0))))
	add("acc.r", s.Const(0, 8)) // hardwired clear
	add("out", s.Read("acc.r", 8, rtl.NoExpr))
	add("acc.r", s.Slice(7, 0, s.Op(rtl.OpMul, 16,
		s.Read("x.r", 16, rtl.NoExpr), s.Read("x.r", 16, rtl.NoExpr))))
	add("acc.r", port(s, "pin", 8))

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

func field(s *rtl.Store, hi, lo int) rtl.ExprID {
	return s.Node(rtl.Expr{Kind: rtl.InsnField, Hi: hi, Lo: lo, Width: hi - lo + 1})
}

func port(s *rtl.Store, name string, w int) rtl.ExprID {
	return s.Node(rtl.Expr{Kind: rtl.PortRef, Port: name, Width: w})
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
	if mac.Pat != g.Template(mac).Src || mac.Term != g.PatTerm(mac.Pat) || mac.Term < 0 {
		t.Errorf("add rule: pattern %d, terminal %d; template source %d", mac.Pat, mac.Term, g.Template(mac).Src)
	}
	s := g.Exprs()
	kids := s.Kids(mac.Pat)
	if nt := g.PatNT(kids[0]); nt == 0 || g.NTNames[nt] != "acc.r" || g.PatTerm(kids[0]) != -1 {
		t.Errorf("left kid = %s, nonterminal %d", s.String(kids[0]), nt)
	}
	right := s.Expr(kids[1])
	if g.PatNT(kids[1]) != 0 || right.Kind != rtl.Read || right.Storage != "ram.m" || g.PatTerm(kids[1]) < 0 {
		t.Fatalf("right kid = %s", s.String(kids[1]))
	}
	addr := s.Addr(kids[1])
	if e := s.Expr(addr); e.Kind != rtl.InsnField || e.Hi != 3 || g.PatTerm(addr) < 0 {
		t.Errorf("address pattern = %s", s.String(addr))
	}
}

// TestSubjectTerms checks which rule bucket each subject node kind finds:
// constants and instruction fields share the immediates' terminal, reads
// split into registers and memories, and a node no rule's root can match
// finds none.
func TestSubjectTerms(t *testing.T) {
	g, _ := buildTestGrammar(t)
	var s rtl.Store
	acc := s.Read("acc.r", 8, rtl.NoExpr)
	mul := s.Op(rtl.OpMul, 16, s.Read("x.r", 16, rtl.NoExpr), s.Read("x.r", 16, rtl.NoExpr))
	roots := func(e rtl.ExprID) string {
		id := g.SubjectTerm(&s, e)
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
		e    rtl.ExprID
		want string
	}{
		{s.Op(rtl.OpAdd, 8, acc, acc), "(acc.r + ram.m[IMM[3:0]]);"},
		{s.Op(rtl.OpAdd, 16, acc, acc), "none"}, // widths tell operators apart
		{s.Op(rtl.OpSub, 8, acc, acc), "none"},
		{acc, "acc.r;"},
		{s.Read("ram.m", 8, s.Const(1, 4)), ""},
		{s.Const(7, 8), "0;"},
		{field(&s, 3, 0), "0;"},
		{port(&s, "pin", 8), "pin;"},
		{s.Slice(7, 0, mul), "(x.r * x.r)[7:0];"},
		{s.Node(rtl.Expr{Kind: rtl.ExprKind(99)}), "none"},
	}
	for i, c := range cases {
		if got := roots(c.e); got != c.want {
			t.Errorf("case %d (%s): rules %q, want %q", i, s.String(c.e), got, c.want)
		}
	}
	if g.SubjectTerm(&s, s.Const(7, 8)) != g.SubjectTerm(&s, field(&s, 3, 0)) {
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
	var s rtl.Store
	if c := termOfRule(KindRT, "0"); g.SubjectTerm(&s, s.Const(1, 8)) != c || c < 0 {
		t.Error("a constant must find the hardwired constant's terminal")
	}
	reg := termOfRule(KindStop, "acc.r")
	if g.SubjectTerm(&s, s.Read("acc.r", 8, rtl.NoExpr)) != reg {
		t.Error("a register read must find its stop rule's terminal")
	}
	if g.SubjectTerm(&s, s.Read("acc.r", 8, s.Const(0, 4))) == reg {
		t.Error("an addressable read found the register's terminal")
	}
	add := termOfRule(KindRT, "(acc.r + ram.m[IMM[3:0]])")
	if g.SubjectTerm(&s, s.Op(rtl.OpAdd, 16, s.Const(0, 16), s.Const(0, 16))) == add {
		t.Error("a 16-bit add found the 8-bit add's terminal")
	}
}

func TestUnknownStorageRejected(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	base.Add(&rtl.Template{Dest: "acc.r", DestAddr: rtl.NoExpr, Width: 8,
		Src:  base.Exprs().Read("ghost.r", 8, rtl.NoExpr),
		Cond: rtl.ExecCond{Static: m.True()}})
	spec := Spec{Storages: []StorageInfo{{Name: "acc.r", Width: 8, Size: 1}}}
	if _, err := Build(base, spec); err == nil || !strings.Contains(err.Error(), "ghost.r") {
		t.Fatalf("expected unknown-storage error, got %v", err)
	}
}

func TestTemplateWithUnknownDestSkipped(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	base.Add(&rtl.Template{Dest: "pc.r", DestAddr: rtl.NoExpr, Width: 8,
		Src:  base.Exprs().Const(0, 8),
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
