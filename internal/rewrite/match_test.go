package rewrite

import (
	"reflect"
	"testing"

	"repro/internal/hdl"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// fullMatch is the matcher without the root fast reject: it allocates the
// bindings first and walks the whole pattern.
func fullMatch(p *Pattern, e *rtl.Expr) (*Bindings, bool) {
	b := &Bindings{Sub: make(map[string]*rtl.Expr), Const: make(map[string]int64)}
	var match func(p *Pattern, e *rtl.Expr) bool
	match = func(p *Pattern, e *rtl.Expr) bool {
		switch p.Kind {
		case PVar:
			if prev, ok := b.Sub[p.Name]; ok {
				return prev.Equal(e)
			}
			b.Sub[p.Name] = e
			return true
		case PConst:
			return e.Kind == rtl.Const && e.Val == p.Val
		case PAnyConst:
			if e.Kind != rtl.Const {
				return false
			}
			if prev, ok := b.Const[p.Name]; ok {
				return prev == e.Val
			}
			b.Const[p.Name] = e.Val
			return true
		case POp:
			if e.Kind != rtl.OpApp || e.Op != p.Op || len(e.Kids) != len(p.Kids) {
				return false
			}
			for i, k := range p.Kids {
				if !match(k, e.Kids[i]) {
					return false
				}
			}
			return true
		}
		return false
	}
	if match(p, e) {
		return b, true
	}
	return nil, false
}

// TestMatchFastRejectAgreesWithFullMatch probes both sides of every
// standard-library rule against every node of every bundled model's
// extended template base: Match must fail exactly where the full matcher
// fails, with (nil, false), and succeed with the same bindings elsewhere.
func TestMatchFastRejectAgreesWithFullMatch(t *testing.T) {
	var probes, matches int
	bundled := models.All()
	brancher, _ := models.Get("brancher")
	bundled = append(bundled, models.Entry{Name: "brancher", MDL: brancher})
	for _, m := range bundled {
		base := extractedBase(t, m.MDL)
		Extend(base, DefaultOptions())
		for _, r := range StandardLibrary() {
			for _, p := range []*Pattern{r.HW, r.Prog} {
				for _, tp := range base.Templates {
					tp.Src.Walk(func(e *rtl.Expr) {
						probes++
						got, ok := p.Match(e)
						want, wantOK := fullMatch(p, e)
						if ok != wantOK || !reflect.DeepEqual(got, want) {
							t.Errorf("%s: %s against %s: Match = (%v, %v); full matcher = (%v, %v)",
								m.Name, p, e, got, ok, want, wantOK)
						}
						if ok {
							matches++
						}
					})
				}
			}
		}
	}
	if matches == 0 || matches == probes {
		t.Fatalf("%d of %d probes matched; want some of each", matches, probes)
	}
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
