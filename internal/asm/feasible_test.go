package asm_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/code"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/ir/irtest"
	"repro/internal/models"
)

// checker is a compaction Feasibility that answers through
// Session.Feasible and checks every answer against the reference
// conjunction, and every set condition against the fresh one.
type checker struct {
	t              *testing.T
	s              *asm.Session
	name           string
	probes, passed int
}

func (c *checker) Feasible(instrs []*code.Instr) bool {
	c.t.Helper()
	got := c.s.Feasible(instrs)
	_, err := c.s.RefWordCond(instrs)
	if got != (err == nil) {
		c.t.Fatalf("%s: Feasible(%v) = %t; reference conjunction: %v", c.name, instrs, got, err)
	}
	if set, ref := c.s.SetCond(instrs), c.s.RefSetCond(instrs); set != ref {
		c.t.Fatalf("%s: set condition of %v is node %d; the fresh conjunction reaches %d", c.name, instrs, set, ref)
	}
	c.probes++
	if got {
		c.passed++
	}
	return got
}

// block is one sequence compaction ran on and the address of its first
// word.
type block struct {
	seq   *code.Seq
	start int
}

// blocks splits a compile's sequence into its blocks: a control-flow
// compile lays each block's words out from its BlockStart on.
func blocks(res *core.CompileResult) []block {
	if res.CFG == nil {
		return []block{{res.Seq, 0}}
	}
	wordOf := make(map[*code.Instr]int)
	for w, word := range res.Code.Words {
		for _, in := range word.Instrs {
			wordOf[in] = w
		}
	}
	var out []block
	for _, in := range res.Seq.Instrs {
		b := sort.SearchInts(res.BlockStart, wordOf[in]+1) - 1
		if len(out) == 0 || out[len(out)-1].start != res.BlockStart[b] {
			out = append(out, block{&code.Seq{}, res.BlockStart[b]})
		}
		out[len(out)-1].seq.Append(in)
	}
	return out
}

// TestFeasibleMatchesConjunction replays the compaction of every compile
// TestCompileProductsPinned pins — each bundled model and brancher on the
// DSPStone suite, the 80 programs of the control-flow corpus and the
// Collatz program — through a checker.  Every probe must get the verdict
// the full conjunction gives, and every memoised set condition must be
// the node its fresh conjunction reaches.  The replay must also rebuild
// each block's words exactly.
func TestFeasibleMatchesConjunction(t *testing.T) {
	ctx := context.Background()
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	total := &checker{}
	for _, name := range names {
		mdl, _ := models.Get(name)
		tg, err := core.RetargetContext(ctx, mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatalf("%s: retarget: %v", name, err)
		}
		c, err := core.NewCompiler(tg, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		chk := &checker{t: t, s: tg.Encoder.NewSession()}
		replay := func(prog string, res *core.CompileResult, err error) {
			if err != nil {
				return // pinned as "error"
			}
			chk.name = name + "/" + prog
			for _, b := range blocks(res) {
				p, err := compact.Compact(b.seq, chk, compact.Options{})
				if err != nil {
					t.Fatalf("%s: replay: %v", chk.name, err)
				}
				if err := compact.Verify(b.seq, p, chk); err != nil {
					t.Fatalf("%s: replay: %v", chk.name, err)
				}
				for i, w := range p.Words {
					if want := res.Code.Words[b.start+i].Instrs; !slices.Equal(w.Instrs, want) {
						t.Fatalf("%s: replayed word %d holds %v; the compile's holds %v", chk.name, b.start+i, w.Instrs, want)
					}
				}
			}
		}
		for _, k := range dspstone.Suite() {
			res, err := c.CompileSource(ctx, k.Source)
			replay(k.Name, res, err)
		}
		if name == "brancher" {
			rng := rand.New(rand.NewSource(4242))
			for i := 0; i < 80; i++ {
				res, err := c.CompileProgramOpts(ctx, irtest.RandomCF(rng), core.CompileOptions{})
				replay(fmt.Sprintf("cf%02d", i), res, err)
			}
			res, err := c.CompileSource(ctx, irtest.Collatz)
			replay("collatz", res, err)
		}
		total.probes += chk.probes
		total.passed += chk.passed
	}
	if total.passed == 0 || total.passed == total.probes {
		t.Fatalf("%d of %d probes feasible; the replay must see both verdicts", total.passed, total.probes)
	}
	t.Logf("%d probes, %d feasible", total.probes, total.passed)
}
