package rewrite

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// TestMatchFastRejectAgreesWithFullMatch probes both sides of every
// standard-library rule against every node of every bundled model's
// extended template base: Match by handle must fail exactly where the
// reference matcher over the tests' own trees fails, and succeed with the
// same bindings elsewhere.
func TestMatchFastRejectAgreesWithFullMatch(t *testing.T) {
	var probes, matches int
	bundled := models.All()
	brancher, _ := models.Get("brancher")
	bundled = append(bundled, models.Entry{Name: "brancher", MDL: brancher})
	var b Bindings
	for _, m := range bundled {
		base := extractedBase(t, m.MDL)
		Extend(base, DefaultOptions())
		s := base.Exprs()
		var probe func(p *Pattern, h rtl.ExprID)
		probe = func(p *Pattern, h rtl.ExprID) {
			probes++
			e := nodeOf(s, h)
			ok := p.Match(s, h, &b)
			want, wantOK := refMatch(p, e)
			if ok != wantOK || ok && !sameBindings(s, &b, want) {
				t.Errorf("%s: %s against %s: Match = (%v, %v); reference = (%v, %v)",
					m.Name, p, e, b, ok, want, wantOK)
			}
			if ok {
				matches++
			}
			for _, k := range s.Kids(h) {
				probe(p, k)
			}
		}
		for _, r := range StandardLibrary() {
			for _, p := range []*Pattern{r.HW, r.Prog} {
				for _, tp := range base.Templates {
					probe(p, tp.Src)
				}
			}
		}
	}
	if matches == 0 || matches == probes {
		t.Fatalf("%d of %d probes matched; want some of each", matches, probes)
	}
}

// sameBindings reports whether b, by handle in s, binds what the
// reference bindings want bind.
func sameBindings(s *rtl.Store, b *Bindings, want *refBindings) bool {
	if len(b.Sub) != len(want.sub) || len(b.Const) != len(want.consts) {
		return false
	}
	for _, v := range b.Sub {
		if !nodeOf(s, v.Val).equal(want.sub[v.Name]) {
			return false
		}
	}
	for _, c := range b.Const {
		if v, ok := want.consts[c.Name]; !ok || v != c.Val {
			return false
		}
	}
	return true
}

func extractedBase(t *testing.T, src string) *rtl.Base {
	t.Helper()
	model, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netlist.Elaborate(model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ise.Extract(net, ise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Base
}
