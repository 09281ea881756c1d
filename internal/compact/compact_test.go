package compact_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/code"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/models"
)

func c25(t *testing.T) *core.Target {
	t.Helper()
	mdl, _ := models.Get("tms320c25")
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
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

const macSrc = `
int a[4] = {1, 2, 3, 4};
int b[4] = {5, 6, 7, 8};
int s;
void main() {
  s = 0;
  for (i = 0; i < 4; i++) {
    s = s + a[i] * b[i];
  }
}
`

func TestCompactShortensAndVerifies(t *testing.T) {
	tg := c25(t)
	res, err := newCompiler(t, tg).CompileSource(context.Background(), macSrc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CodeLen() >= res.SeqLen() {
		t.Errorf("compaction did not shorten: %d words vs %d RTs",
			res.CodeLen(), res.SeqLen())
	}
	if err := compact.Verify(res.Seq, res.Code, tg.Encoder.NewSession()); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Every instruction appears exactly once.
	total := 0
	for _, w := range res.Code.Words {
		total += len(w.Instrs)
	}
	if total != res.SeqLen() {
		t.Errorf("packed %d of %d instructions", total, res.SeqLen())
	}
}

func TestDisableKeepsOrder(t *testing.T) {
	tg := c25(t)
	res, err := newCompiler(t, tg).CompileSourceOpts(context.Background(), macSrc, core.CompileOptions{NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CodeLen() != res.SeqLen() {
		t.Fatalf("disabled compaction packed: %d vs %d", res.CodeLen(), res.SeqLen())
	}
	for i, w := range res.Code.Words {
		if len(w.Instrs) != 1 || w.Instrs[0] != res.Seq.Instrs[i] {
			t.Fatalf("word %d does not match sequence", i)
		}
	}
}

// relaid compiles src one RT per word and re-lays its sequence out as the
// given words, each a list of sequence positions.
func relaid(t *testing.T, tg *core.Target, src string, words [][]int) *core.CompileResult {
	t.Helper()
	res, err := newCompiler(t, tg).CompileSourceOpts(context.Background(), src, core.CompileOptions{NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Code.Words = nil
	for _, w := range words {
		word := &code.Word{}
		for _, i := range w {
			word.Instrs = append(word.Instrs, res.Seq.Instrs[i])
		}
		res.Code.Words = append(res.Code.Words, word)
	}
	return res
}

func TestVerifyCatchesReorderedDependence(t *testing.T) {
	tg := c25(t)
	// One RT per word: 0 acc := 0; 1 x := acc; 2 acc := 0; 3 y := acc.
	// Every layout keeps each word encodable, so Verify reaches the
	// dependence check, and breaks (or keeps) exactly the pair named.
	const zeros = `int x; int y; x = 0; y = 0;`
	for _, tc := range []struct {
		name  string
		src   string
		words [][]int
		want  string // "" for a legal layout
	}{
		{"swap first and last", `int x; int y; x = 5; y = x + 1;`, [][]int{{3}, {1}, {2}, {0}}, "violated"},
		{"store before its load (RAW 0->1)", zeros, [][]int{{1}, {0}, {2}, {3}}, "read-after-write"},
		{"store beside its load (RAW 0->1, one word)", zeros, [][]int{{0, 1}, {2}, {3}}, "read-after-write"},
		{"loads swapped (WAW 0->2)", zeros, [][]int{{2}, {0}, {1}, {3}}, "write-after-write"},
		{"both loads in one word (WAW 0->2)", zeros, [][]int{{0, 2}, {1}, {3}}, "write-after-write"},
		{"reload before the store (WAR 1->2)", zeros, [][]int{{0}, {2}, {1}, {3}}, "write-after-read"},
		{"reload beside the store (WAR 1->2, one word)", zeros, [][]int{{0}, {1, 2}, {3}}, ""},
	} {
		res := relaid(t, tg, tc.src, tc.words)
		err := compact.Verify(res.Seq, res.Code, tg.Encoder.NewSession())
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: legal layout rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Verify = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestVerifyCatchesDuplicatedInstr drops the first RT and runs the last one
// twice: the placed-RT count still matches the sequence.
func TestVerifyCatchesDuplicatedInstr(t *testing.T) {
	tg := c25(t)
	res := relaid(t, tg, `int x; int y; x = 5; y = 7;`, [][]int{{3}, {1}, {2}, {3}})
	err := compact.Verify(res.Seq, res.Code, tg.Encoder.NewSession())
	if err == nil || !strings.Contains(err.Error(), "placed twice") {
		t.Errorf("Verify = %v, want the duplicated RT reported", err)
	}
}

// TestVerifyCatchesForeignInstr places a copy of an RT instead of the RT.
func TestVerifyCatchesForeignInstr(t *testing.T) {
	tg := c25(t)
	res := relaid(t, tg, `int x; int y; x = 5; y = 7;`, [][]int{{0}, {1}, {2}, {3}})
	foreign := *res.Seq.Instrs[0]
	res.Code.Words[0].Instrs[0] = &foreign
	err := compact.Verify(res.Seq, res.Code, tg.Encoder.NewSession())
	if err == nil || !strings.Contains(err.Error(), "not in the sequence") {
		t.Errorf("Verify = %v, want the foreign RT reported", err)
	}
}

func TestVerifyCatchesMissingInstr(t *testing.T) {
	tg := c25(t)
	res, err := newCompiler(t, tg).CompileSource(context.Background(), `int x; x = 5;`)
	if err != nil {
		t.Fatal(err)
	}
	prg := res.Code
	prg.Words = prg.Words[:len(prg.Words)-1]
	if err := compact.Verify(res.Seq, prg, tg.Encoder.NewSession()); err == nil {
		t.Error("dropped instruction passed verification")
	}
}

func TestParallelWordsEncodable(t *testing.T) {
	tg := c25(t)
	res, err := newCompiler(t, tg).CompileSource(context.Background(), macSrc)
	if err != nil {
		t.Fatal(err)
	}
	parallel := 0
	for _, w := range res.Code.Words {
		if len(w.Instrs) > 1 {
			parallel++
			if !tg.Encoder.NewSession().Feasible(w.Instrs) {
				t.Errorf("parallel word not encodable: %s", w)
			}
		}
	}
	if parallel == 0 {
		t.Error("MAC kernel produced no parallel words")
	}
}
