package rtl_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/rtl"
)

// TestInternMatchesEqualOnModels interns every template source and
// address of every bundled model into a fresh store and checks that two
// trees get the same handle iff they are Equal.  It also checks that each
// base's own handles name the canonical trees its templates hold.
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
		var s rtl.Store
		canon := map[rtl.ExprID]*rtl.Expr{}
		for _, tp := range tg.Base.Templates {
			if got := tg.Base.Exprs().Expr(tp.SrcID()); got != tp.Src {
				t.Fatalf("%s: template %d holds %p, its handle names %p", name, tp.ID, tp.Src, got)
			}
			for _, e := range []*rtl.Expr{tp.Src, tp.DestAddr} {
				if e == nil {
					continue
				}
				id := s.Intern(e.Clone())
				if c, ok := canon[id]; ok && !c.Equal(e) {
					t.Fatalf("%s: %s and %s share handle %d", name, c, e, id)
				}
				canon[id] = e
			}
		}
		distinct := make([]*rtl.Expr, 0, len(canon))
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
		t.Logf("%s: %d templates, %d distinct source and address trees, %d interned nodes", name, len(tg.Base.Templates), len(distinct), tg.Base.Exprs().Len())
	}
}
