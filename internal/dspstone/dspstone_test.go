package dspstone

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/naive"
)

var (
	c25Once sync.Once
	c25     *core.Target
	c25Err  error
)

func c25Target(t *testing.T) *core.Target {
	t.Helper()
	c25Once.Do(func() {
		mdl, _ := models.Get("tms320c25")
		c25, c25Err = core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	})
	if c25Err != nil {
		t.Fatalf("retarget: %v", c25Err)
	}
	return c25
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

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d kernels, want 10", len(suite))
	}
	names := map[string]bool{}
	for _, k := range suite {
		if k.Source == "" || k.HandWords <= 0 {
			t.Errorf("%s: incomplete kernel", k.Name)
		}
		if names[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		names[k.Name] = true
	}
	if _, ok := Get("fir"); !ok {
		t.Error("Get(fir) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
}

// figure2Words pins the Figure 2 result on tms320c25: the exact code
// size, in instruction words, of each kernel as RECORD and the naive
// baseline compile it.  Any change to code selection, compaction or the
// baseline that moves a count shows up here as a failing diff.
var figure2Words = map[string]struct{ record, naive int }{
	"real_update":       {5, 7},
	"complex_multiply":  {11, 22},
	"complex_update":    {13, 28},
	"n_real_updates":    {19, 56},
	"n_complex_updates": {51, 224},
	"dot_product":       {11, 58},
	"fir":               {27, 74},
	"biquad_one":        {18, 36},
	"biquad_N":          {61, 146},
	"convolution":       {11, 58},
}

// TestKernelsCompileAndVerify is the core figure-2 integrity check: every
// kernel compiles for the TMS320C25 model, runs on the netlist simulator,
// and matches the IR oracle — for both the RECORD pipeline and the naive
// baseline — at exactly the code size figure2Words records.
func TestKernelsCompileAndVerify(t *testing.T) {
	tg := c25Target(t)
	if len(figure2Words) != len(Suite()) {
		t.Fatalf("figure2Words has %d kernels, suite has %d", len(figure2Words), len(Suite()))
	}
	for _, k := range Suite() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want, ok := figure2Words[k.Name]
			if !ok {
				t.Fatalf("no pinned word counts for %s", k.Name)
			}
			rec, err := newCompiler(t, tg).CompileSource(context.Background(), k.Source)
			if err != nil {
				t.Fatalf("record compile: %v", err)
			}
			if err := tg.CheckAgainstOracle(rec); err != nil {
				t.Fatalf("record oracle: %v", err)
			}
			nv, err := naive.CompileSource(newCompiler(t, tg), k.Source)
			if err != nil {
				t.Fatalf("naive compile: %v", err)
			}
			if err := tg.CheckAgainstOracle(nv); err != nil {
				t.Fatalf("naive oracle: %v", err)
			}
			recPct := 100 * rec.CodeLen() / k.HandWords
			nvPct := 100 * nv.CodeLen() / k.HandWords
			t.Logf("%-18s hand=%3d  record=%3d (%d%%)  naive=%3d (%d%%)",
				k.Name, k.HandWords, rec.CodeLen(), recPct, nv.CodeLen(), nvPct)
			if rec.CodeLen() != want.record || nv.CodeLen() != want.naive {
				t.Errorf("words {record, naive} = {%d, %d}, want {%d, %d}",
					rec.CodeLen(), nv.CodeLen(), want.record, want.naive)
			}
			// Figure 2 shape: RECORD never loses to the naive baseline.
			if rec.CodeLen() > nv.CodeLen() {
				t.Errorf("record (%d) worse than naive (%d)", rec.CodeLen(), nv.CodeLen())
			}
			// And stays within a sane factor of hand-written code.
			if rec.CodeLen() > 3*k.HandWords {
				t.Errorf("record %d words vs hand %d: more than 3x overhead",
					rec.CodeLen(), k.HandWords)
			}
		})
	}
}

func TestNaiveIsGenuinelyWorseSomewhere(t *testing.T) {
	tg := c25Target(t)
	worse := 0
	for _, k := range Suite() {
		rec, err := newCompiler(t, tg).CompileSource(context.Background(), k.Source)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := naive.CompileSource(newCompiler(t, tg), k.Source)
		if err != nil {
			t.Fatal(err)
		}
		if nv.CodeLen() > rec.CodeLen() {
			worse++
		}
	}
	if worse < 5 {
		t.Errorf("naive baseline beaten on only %d/10 kernels; figure 2 shape lost", worse)
	}
}
