package rtl_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/rtl"
)

// TestInternMatchesEqualOnModels reads every template source, address
// and dynamic guard of every bundled model out of its base's store as a
// reference tree, builds it into a fresh store, and checks that two trees
// get the same handle iff they are equal and that each handle renders as
// its tree.  It also checks that rebuilding a tree in the base's own
// store finds the handle the template holds.
func TestInternMatchesEqualOnModels(t *testing.T) {
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	for _, name := range names {
		mdl, _ := models.Get(name)
		tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base := tg.Base.Exprs()
		var s rtl.Store
		canon := map[rtl.ExprID]*rtl.Tree{}
		for _, tp := range tg.Base.Templates {
			if tp.Exprs() != base {
				t.Fatalf("%s: template %d holds trees of another store", name, tp.ID)
			}
			for _, h := range append([]rtl.ExprID{tp.Src, tp.DestAddr}, tp.Cond.Dynamic...) {
				if h == rtl.NoExpr {
					continue
				}
				e := rtl.TreeOf(base, h)
				if again := e.Build(base); again != h {
					t.Fatalf("%s: template %d holds %s as %d, rebuilt as %d", name, tp.ID, e, h, again)
				}
				id := e.Build(&s)
				if c, ok := canon[id]; ok && !c.Equal(e) {
					t.Fatalf("%s: %s and %s share handle %d", name, c, e, id)
				}
				if got := s.String(id); got != e.String() {
					t.Fatalf("%s: %s renders as %s", name, e, got)
				}
				canon[id] = e
			}
		}
		distinct := make([]*rtl.Tree, 0, len(canon))
		for _, e := range canon {
			distinct = append(distinct, e)
		}
		for i, a := range distinct {
			for _, b := range distinct[i+1:] {
				if a.Equal(b) {
					t.Fatalf("%s: equal trees %s got distinct handles", name, a)
				}
			}
		}
		t.Logf("%s: %d templates, %d distinct source, address and guard trees, %d nodes in the base's store", name, len(tg.Base.Templates), len(distinct), base.Len())
	}
}
