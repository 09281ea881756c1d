package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfront"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/ir"
	"repro/internal/ir/irtest"
	"repro/internal/models"
)

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestPooledScratchNoLeak checks that nothing one compile leaves in a
// pooled workspace (subject store, labels, slabs, encoding session)
// reaches the next: one Compiler per bundled model compiles every
// DSPStone kernel, and brancher also control-flow programs, in a seeded
// shuffled interleaving, twice, and every product is byte-identical to
// that of a fresh Compiler's first compile.
func TestPooledScratchNoLeak(t *testing.T) {
	ctx := context.Background()
	type job struct {
		name string
		c    *core.Compiler
		prog *ir.Program
		want string
	}
	digest := func(c *core.Compiler, prog *ir.Program) string {
		res, err := c.CompileProgramOpts(ctx, prog, core.CompileOptions{})
		if err != nil {
			return "error: " + err.Error()
		}
		return compileDigest(res.Words(), c.Target().Listing(res))
	}
	var jobs []job
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	rng := rand.New(rand.NewSource(38))
	for _, name := range names {
		mdl, _ := models.Get(name)
		tg, err := core.RetargetContext(ctx, mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatalf("%s: retarget: %v", name, err)
		}
		pooled, err := core.NewCompiler(tg, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		add := func(label string, prog *ir.Program) {
			fresh, err := core.NewCompiler(tg, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{name + "/" + label, pooled, prog, digest(fresh, prog)})
		}
		for _, k := range dspstone.Suite() {
			prog, err := cfront.Parse(k.Source)
			if err != nil {
				t.Fatal(err)
			}
			add(k.Name, prog)
		}
		if name == "brancher" {
			for i := range 20 {
				add(fmt.Sprintf("cf%02d", i), irtest.RandomCF(rng))
			}
		}
	}
	for round := range 2 {
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		for _, j := range jobs {
			if got := digest(j.c, j.prog); got != j.want {
				t.Errorf("round %d, %s: pooled compile gives %s, a fresh compiler %s", round, j.name, got, j.want)
			}
		}
	}
}

// TestCompileAllocs is the allocation gate of the compile hot path: a warm
// pooled Compiler compiles biquad_N n=32 on tms320c25, the largest
// program of recordbench's compile corpus, in at most 6,000 allocations.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	mdl, _ := models.Get("tms320c25")
	tg, err := core.RetargetContext(ctx, mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := dspstone.BiquadN(32).Source
	compile := func() {
		if _, err := c.CompileSource(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	compile() // warm the workspace
	if allocs := testing.AllocsPerRun(5, compile); allocs > 6000 {
		t.Errorf("biquad_N n=32 takes %.0f allocations per compile, want at most 6000", allocs)
	}
}
