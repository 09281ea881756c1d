package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/ir/irtest"
	"repro/internal/models"
)

var update = flag.Bool("update", false, "rewrite testdata/compile_products.golden")

// compileDigest is one compile's products reduced to a line: the word
// count and the SHA-256 of the encoded words and the listing.
func compileDigest(words []uint64, listing string) string {
	h := sha256.New()
	for _, w := range words {
		fmt.Fprintf(h, "%016x\n", w)
	}
	h.Write([]byte(listing))
	return fmt.Sprintf("%d %s", len(words), hex.EncodeToString(h.Sum(nil)))
}

// TestCompileProductsPinned pins compiled bits across commits, the
// compile-side twin of TestRetargetProductsPinned: the words and listing
// of every bundled model × DSPStone kernel pair (a pair that does not
// compile is pinned as "error"), of the 80 programs of the control-flow
// corpus and of the Collatz program, all against
// testdata/compile_products.golden.  A deliberate change regenerates it
// with go test -run TestCompileProductsPinned -update.
func TestCompileProductsPinned(t *testing.T) {
	ctx := context.Background()
	var lines []string
	add := func(name string, c *core.Compiler, res *core.CompileResult, err error) {
		digest := "error"
		if err == nil {
			digest = compileDigest(res.Words(), c.Target().Listing(res))
		}
		lines = append(lines, name+" "+digest)
	}
	var branch *core.Compiler
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
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
		if name == "brancher" {
			branch = c
		}
		for _, k := range dspstone.Suite() {
			res, err := c.CompileSource(ctx, k.Source)
			add(name+"/"+k.Name, c, res, err)
		}
	}
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 80; i++ {
		res, err := branch.CompileProgramOpts(ctx, irtest.RandomCF(rng), core.CompileOptions{})
		add(fmt.Sprintf("brancher/cf%02d", i), branch, res, err)
	}
	res, err := branch.CompileSource(ctx, irtest.Collatz)
	add("brancher/collatz", branch, res, err)

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "compile_products.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d compile products, golden has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("compile products changed:\n got %s\nwant %s", lines[i], wantLines[i])
		}
	}
}
