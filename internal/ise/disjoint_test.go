package ise

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/models"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// TestStaticConditionsDisjoint is the static layer of translation
// validation: on every bundled model, no two extracted templates of one
// destination have jointly satisfiable static conditions, so in a given
// word and mode state at most one transfer into each destination is
// active.  The one exception is a pair guarded by complementary dynamic
// conditions (brancher's taken and not-taken jumps), of which at most one
// holds at run time.
func TestStaticConditionsDisjoint(t *testing.T) {
	srcs := map[string]string{}
	for _, m := range models.All() {
		srcs[m.Name] = m.MDL
	}
	srcs["brancher"], _ = models.Get("brancher")
	pairs, complementary := 0, 0
	for name, src := range srcs {
		mod, err := hdl.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		n, err := netlist.Elaborate(mod)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Extract(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, ts := res.Base.BDD, res.Base.Templates
		for i, a := range ts {
			for _, b := range ts[i+1:] {
				if a.Dest != b.Dest {
					continue
				}
				pairs++
				switch {
				case m.And(a.Cond.Static, b.Cond.Static) == m.False():
				case complementaryGuards(a, b):
					complementary++
				default:
					t.Errorf("%s: %s and %s can both execute in one word", name, a, b)
				}
			}
		}
	}
	if pairs == 0 || complementary == 0 {
		t.Fatalf("%d same-destination pairs, %d with complementary guards; want both > 0", pairs, complementary)
	}
}

// complementaryGuards reports whether a and b each carry one dynamic
// guard and b's holds exactly when a's does not.
func complementaryGuards(a, b *rtl.Template) bool {
	return len(a.Cond.Dynamic) == 1 && len(b.Cond.Dynamic) == 1 &&
		negateGuard(a.Exprs(), a.Cond.Dynamic[0]) == b.Cond.Dynamic[0]
}
