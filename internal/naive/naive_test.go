package naive

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/models"
)

func TestLower3ACShapes(t *testing.T) {
	prog, err := cfront.Parse(`
int a; int b; int c; int x;
x = a + b * c;
`)
	if err != nil {
		t.Fatal(err)
	}
	lowered, err := Lower3AC(prog)
	if err != nil {
		t.Fatal(err)
	}
	// b*c hoisted into a temp; the final assignment carries one op.
	if len(lowered.Body) != 2 {
		t.Fatalf("body = %d stmts: %v", len(lowered.Body), lowered.Body)
	}
	first := lowered.Body[0].String()
	if !strings.Contains(first, "__t0 = (b * c);") {
		t.Errorf("first = %s", first)
	}
	second := lowered.Body[1].String()
	if !strings.Contains(second, "x = (a + __t0);") {
		t.Errorf("second = %s", second)
	}
	// Temp declared.
	found := false
	for _, d := range lowered.Decls {
		if d.Name == "__t0" {
			found = true
		}
	}
	if !found {
		t.Error("temp not declared")
	}
}

func TestLower3ACSemanticsPreserved(t *testing.T) {
	prog, err := cfront.Parse(`
int a = 3; int b = 4; int c = 5;
int x; int y;
x = (a + b) * (c - a);
y = -x + 2;
`)
	if err != nil {
		t.Fatal(err)
	}
	lowered, err := Lower3AC(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Run(prog, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ir.Run(lowered, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x", "y"} {
		if got[name][0] != want[name][0] {
			t.Errorf("%s: %d != %d", name, got[name][0], want[name][0])
		}
	}
}

// newCompiler builds a compile handle for tg.  A new handle's session
// pool is empty, so its first compile runs on a fresh encoding session.
func newCompiler(t testing.TB, tg *core.Target) *core.Compiler {
	t.Helper()
	c, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNaiveCompileIsLonger(t *testing.T) {
	mdl, _ := models.Get("tms320c25")
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := `
int a = 2; int b = 3; int c = 4;
int y;
y = c + a * b;
`
	nv, err := CompileSource(newCompiler(t, tg), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(nv); err != nil {
		t.Fatal(err)
	}
	rec, err := newCompiler(t, tg).CompileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if nv.CodeLen() <= rec.CodeLen() {
		t.Errorf("naive (%d) not worse than record (%d)", nv.CodeLen(), rec.CodeLen())
	}
}

func TestNaiveHandlesLoops(t *testing.T) {
	mdl, _ := models.Get("tms320c25")
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := CompileSource(newCompiler(t, tg), `
int a[4] = {1,2,3,4};
int s;
void main() {
  s = 0;
  for (i = 0; i < 4; i++) { s = s + a[i]; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(nv); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveSyntaxError(t *testing.T) {
	mdl, _ := models.Get("tms320c25")
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileSource(newCompiler(t, tg), `int x; x = ;`); err == nil {
		t.Error("syntax error accepted")
	}
}
