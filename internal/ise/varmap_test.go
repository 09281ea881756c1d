package ise

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/models"
	"repro/internal/netlist"
)

// scanInsnVar is IsInsnVar as a linear scan of InsnVars, the reference
// for the table lookup.
func scanInsnVar(v *VarMap, x int) (int, bool) {
	for i, iv := range v.InsnVars {
		if iv == x {
			return i, true
		}
	}
	return 0, false
}

// TestIsInsnVarMatchesScan checks the table lookup against the scan for
// every BDD variable of every bundled model, under both variable orders,
// and for indices outside the declared range.
func TestIsInsnVarMatchesScan(t *testing.T) {
	srcs := map[string]string{}
	for _, e := range models.All() {
		srcs[e.Name] = e.MDL
	}
	srcs["brancher"], _ = models.Get("brancher")
	for name, src := range srcs {
		m, err := hdl.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		n, err := netlist.Elaborate(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, msb := range []bool{false, true} {
			res, err := Extract(n, Options{MSBFirstVars: msb})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			v := res.Vars
			for x := -3; x < v.M.NumVars()+3; x++ {
				bit, ok := v.IsInsnVar(x)
				wantBit, wantOK := scanInsnVar(v, x)
				if bit != wantBit || ok != wantOK {
					t.Fatalf("%s (MSB first %v): IsInsnVar(%d) = (%d, %v); scan gives (%d, %v)",
						name, msb, x, bit, ok, wantBit, wantOK)
				}
			}
		}
	}
}
