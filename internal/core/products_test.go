package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/grammar"
	"repro/internal/models"
)

// retargetProducts is what a retarget produces, reduced to exact numbers:
// the table-3 counts, the grammar's size, the BDD nodes extraction built,
// and a digest of the template base and grammar renderings.
type retargetProducts struct {
	Extracted, Templates int
	Grammar              grammar.Stats
	BDDNodes             int
	Digest               string // SHA-256 of Base.String() + Grammar.String()
}

func productsOf(tg *Target) retargetProducts {
	h := sha256.New()
	h.Write([]byte(tg.Base.String()))
	h.Write([]byte(tg.Grammar.String()))
	return retargetProducts{
		Extracted: tg.Stats.Extracted,
		Templates: tg.Stats.Templates,
		Grammar:   tg.Stats.GrammarSz,
		BDDNodes:  tg.Stats.ISEDetails.BDDNodes,
		Digest:    hex.EncodeToString(h.Sum(nil)),
	}
}

// TestRetargetProductsPinned pins every bundled model's retarget products
// exactly, so a change to extraction, extension or grammar construction
// that moves a count or a single rendered template or rule fails here
// instead of passing unnoticed.  A deliberate change updates the table.
func TestRetargetProductsPinned(t *testing.T) {
	want := map[string]retargetProducts{
		"demo": {Extracted: 341, Templates: 750, BDDNodes: 1017,
			Grammar: grammar.Stats{Nonterminals: 6, Terminals: 17, StartRules: 5, RTRules: 750, StopRules: 4, ChainRules: 7},
			Digest:  "1649da1131807c98b6d9d0a39a4d236ae22b89e00ec50a035b43d6eabbfefa2a"},
		"ref": {Extracted: 2201, Templates: 4974, BDDNodes: 4680,
			Grammar: grammar.Stats{Nonterminals: 10, Terminals: 21, StartRules: 9, RTRules: 4974, StopRules: 7, ChainRules: 28},
			Digest:  "32ea626535e3900a77547052cb91035928ec86e2ff486435c1d2e142fa3a9052"},
		"manocpu": {Extracted: 41, Templates: 52, BDDNodes: 146,
			Grammar: grammar.Stats{Nonterminals: 7, Terminals: 16, StartRules: 6, RTRules: 52, StopRules: 5, ChainRules: 12},
			Digest:  "f177c63c14b363dfdd65d6a110b8b4d15f96cd517ef7f0e7589bee5ebc6cd5b1"},
		"tanenbaum": {Extracted: 17, Templates: 22, BDDNodes: 90,
			Grammar: grammar.Stats{Nonterminals: 5, Terminals: 10, StartRules: 4, RTRules: 22, StopRules: 3, ChainRules: 4},
			Digest:  "d918eb8a10fb84c12725b9e95a9e1f778df85c3c78bf6441a8e81bdef67b32a4"},
		"bass_boost": {Extracted: 12, Templates: 20, BDDNodes: 78,
			Grammar: grammar.Stats{Nonterminals: 5, Terminals: 10, StartRules: 4, RTRules: 20, StopRules: 2, ChainRules: 2},
			Digest:  "875e208363cb20e0762588b535538fd5f0d8423d93b8ab4c0fe2ca2d5235c4df"},
		"tms320c25": {Extracted: 55, Templates: 88, BDDNodes: 298,
			Grammar: grammar.Stats{Nonterminals: 9, Terminals: 20, StartRules: 8, RTRules: 88, StopRules: 6, ChainRules: 4},
			Digest:  "53da5ebed6df9b6ed0fd782068227c8906a15becff98e684326ce64b1b1ba30d"},
		"brancher": {Extracted: 28, Templates: 44, BDDNodes: 122,
			Grammar: grammar.Stats{Nonterminals: 5, Terminals: 18, StartRules: 4, RTRules: 41, StopRules: 3, ChainRules: 1},
			Digest:  "87d4e19fda61b09d18c138543da42b9481ebea0c27be39fd9d317e489592ec74"},
		"micro16": {Extracted: 18, Templates: 29, BDDNodes: 78,
			Grammar: grammar.Stats{Nonterminals: 4, Terminals: 13, StartRules: 3, RTRules: 29, StopRules: 2, ChainRules: 1},
			Digest:  "004f2979a3f781dc732a28ba7b9f3e1351282cc00c9176a132e25a4232c0e763"},
	}
	sources := map[string]string{"micro16": micro16}
	for _, name := range []string{"demo", "ref", "manocpu", "tanenbaum", "bass_boost", "tms320c25", "brancher"} {
		mdl, ok := models.Get(name)
		if !ok {
			t.Fatalf("model %s missing", name)
		}
		sources[name] = mdl
	}
	for name, src := range sources {
		tg, err := RetargetContext(context.Background(), src, RetargetOptions{})
		if err != nil {
			t.Fatalf("%s: retarget: %v", name, err)
		}
		got := productsOf(tg)
		if got != want[name] {
			t.Errorf("%s: retarget products\n got %#v\nwant %#v", name, got, want[name])
		}
	}
}
