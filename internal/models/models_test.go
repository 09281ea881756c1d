package models

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dspstone"
)

// retarget builds a compiler for a bundled model.
func retarget(t *testing.T, name string) *core.Target {
	t.Helper()
	mdl, ok := Get(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatalf("retarget %s: %v", name, err)
	}
	return tg
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

func TestAllModelsRetarget(t *testing.T) {
	counts := make(map[string]int)
	for _, e := range All() {
		tg := retarget(t, e.Name)
		if tg.Stats.Templates == 0 {
			t.Errorf("%s: no templates", e.Name)
		}
		counts[e.Name] = tg.Stats.Templates
		t.Logf("%-10s extracted=%4d extended=%4d grammar=%+v",
			e.Name, tg.Stats.Extracted, tg.Stats.Templates, tg.Stats.GrammarSz)
	}
	// The paper's relative ordering (table 3):
	// ref >> demo > tms320c25 > {tanenbaum, manocpu} > bass_boost.
	if !(counts["ref"] > counts["demo"]) {
		t.Errorf("ref (%d) should exceed demo (%d)", counts["ref"], counts["demo"])
	}
	if !(counts["demo"] > counts["tms320c25"]) {
		t.Errorf("demo (%d) should exceed tms320c25 (%d)", counts["demo"], counts["tms320c25"])
	}
	if !(counts["tms320c25"] > counts["tanenbaum"]) {
		t.Errorf("tms320c25 (%d) should exceed tanenbaum (%d)", counts["tms320c25"], counts["tanenbaum"])
	}
	if !(counts["tanenbaum"] > counts["bass_boost"]) {
		t.Errorf("tanenbaum (%d) should exceed bass_boost (%d)", counts["tanenbaum"], counts["bass_boost"])
	}
	if !(counts["manocpu"] > counts["bass_boost"]) {
		t.Errorf("manocpu (%d) should exceed bass_boost (%d)", counts["manocpu"], counts["bass_boost"])
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Error("unknown model found")
	}
	if len(All()) != 6 {
		t.Errorf("expected 6 models, got %d", len(All()))
	}
}

// checkProgram compiles and verifies src on model name against the oracle.
func checkProgram(t *testing.T, name, src string) *core.CompileResult {
	t.Helper()
	tg := retarget(t, name)
	res, err := newCompiler(t, tg).CompileSource(context.Background(), src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatalf("%s: oracle: %v\n%s", name, err, tg.Listing(res))
	}
	return res
}

const smokeProgram = `
int a = 7;
int b = 9;
int s;
int d;
s = a + b;
d = s - 3;
`

func TestSmokeProgramOnEveryModel(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			checkProgram(t, e.Name, smokeProgram)
		})
	}
}

func TestC25MultiplyAccumulate(t *testing.T) {
	res := checkProgram(t, "tms320c25", `
int a[4] = {1, 2, 3, 4};
int b[4] = {5, 6, 7, 8};
int s;
void main() {
  s = 0;
  for (i = 0; i < 4; i++) {
    s = s + a[i] * b[i];
  }
}
`)
	// MACs must route through T and P.
	usesT, usesP := false, false
	for _, in := range res.Seq.Instrs {
		switch in.Template.Dest {
		case "t.r":
			usesT = true
		case "p.r":
			usesP = true
		}
	}
	if !usesT || !usesP {
		t.Errorf("MAC should use T (%v) and P (%v) registers:\n%s", usesT, usesP, res.Seq)
	}
}

func TestC25DualMemoryBinding(t *testing.T) {
	res := checkProgram(t, "tms320c25", `
int h[3] = {2, 4, 6};
int x[3] = {1, 1, 1};
int y;
void main() {
  y = h[0]*x[0] + h[1]*x[1] + h[2]*x[2];
}
`)
	if res.Binding.ROM == nil {
		t.Fatal("tms320c25 should expose its coefficient ROM")
	}
	p, _ := res.Binding.AddrOf("h")
	if p.Storage != res.Binding.ROM.Memory {
		t.Errorf("first constant array should bind to the ROM, got %s", p.Storage)
	}
	px, _ := res.Binding.AddrOf("x")
	if px.Storage != res.Binding.Primary.Memory {
		t.Errorf("second constant array should bind to primary memory, got %s", px.Storage)
	}
}

func TestDemoChainedShiftOps(t *testing.T) {
	// 2*v is covered by the chained add-with-shift or the shifter path
	// rather than an explicit multiply sequence.
	res := checkProgram(t, "demo", `
int v = 21;
int w;
w = v + 2 * v;
`)
	if res.SeqLen() > 4 {
		t.Errorf("chained shift ops should keep this short, got %d RTs:\n%s",
			res.SeqLen(), res.Seq)
	}
}

func TestManoIndirectAddressing(t *testing.T) {
	// manocpu stores only through AR: the generated code must set AR up.
	res := checkProgram(t, "manocpu", `
int v = 5;
int w;
w = v + 1;
`)
	arWritten := false
	for _, in := range res.Seq.Instrs {
		if in.Template.Dest == "ar.r" {
			arWritten = true
		}
	}
	if !arWritten {
		t.Errorf("manocpu code must load AR for indirect access:\n%s", res.Seq)
	}
}

func TestTanenbaumLocalAddressing(t *testing.T) {
	checkProgram(t, "tanenbaum", `
int a = 3;
int b = 4;
int c;
c = a + b;
c = c - 2;
`)
}

func TestBassBoostBiquadStep(t *testing.T) {
	// The bass_boost ASIP computes sums of products with ROM coefficients.
	checkProgram(t, "bass_boost", `
int c[2] = {3, 5};
int x[2] = {10, 20};
int y;
y = x[0]*c[0] + x[1]*c[1];
`)
}

func TestCompactionOnC25(t *testing.T) {
	tg := retarget(t, "tms320c25")
	src := `
int h[4] = {1, 2, 3, 4};
int x[4] = {5, 6, 7, 8};
int s;
void main() {
  s = 0;
  for (i = 0; i < 4; i++) {
    s = s + h[i] * x[i];
  }
}
`
	packed, err := newCompiler(t, tg).CompileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(packed); err != nil {
		t.Fatalf("packed: %v", err)
	}
	plain, err := newCompiler(t, tg).CompileSourceOpts(context.Background(), src, core.CompileOptions{NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.CheckAgainstOracle(plain); err != nil {
		t.Fatalf("plain: %v", err)
	}
	if packed.CodeLen() >= plain.CodeLen() {
		t.Errorf("compaction should shorten the MAC loop: %d vs %d words",
			packed.CodeLen(), plain.CodeLen())
	}
	t.Logf("c25 MAC kernel: %d RTs, %d words packed, %d words unpacked",
		packed.SeqLen(), packed.CodeLen(), plain.CodeLen())
}

// TestKernelsAcrossModels compiles representative DSPStone kernels on the
// synthetic machines too — the generality claim behind table 3: one
// compiler, many architectures, same source.
func TestKernelsAcrossModels(t *testing.T) {
	kernels := []string{"real_update", "dot_product", "fir"}
	for _, model := range []string{"demo", "ref"} {
		tg := retarget(t, model)
		for _, kname := range kernels {
			k, ok := dspstone.Get(kname)
			if !ok {
				t.Fatalf("kernel %s missing", kname)
			}
			res, err := newCompiler(t, tg).CompileSource(context.Background(), k.Source)
			if err != nil {
				t.Errorf("%s on %s: compile: %v", kname, model, err)
				continue
			}
			if err := tg.CheckAgainstOracle(res); err != nil {
				t.Errorf("%s on %s: oracle: %v", kname, model, err)
				continue
			}
			t.Logf("%s on %-5s: %d RTs, %d words", kname, model, res.SeqLen(), res.CodeLen())
		}
	}
}
