package ise

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// whenMachine is a two-driver bus machine: r0 drives db under the WHEN
// condition %[2]s, r1 under instruction bit 6.  %[1]s holds extra
// declarations, %[3]s extra interconnect.
const whenMachine = `
PROCESSOR whenbus;
%[1]s
MODULE Reg (IN d: 8; IN ld: 1; OUT q: 8);
VAR r: 8;
BEGIN q <- r; AT ld == 1 DO r <- d; END;
MODULE Rom (IN a: 4; OUT q: 8);
VAR m: 8 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
BUS db : 8;
PARTS
  r0 : Reg; r1 : Reg; dst : Reg;
  imem : Rom INSTRUCTION; pc : PcReg PC; pinc : Inc;
CONNECT
  db <- r0.q WHEN %[2]s;
  db <- r1.q WHEN imem.q[6] == 1;
  dst.d <- db;
  dst.ld <- imem.q[5];
  r0.d <- db;
  r0.ld <- imem.q[4];
  r1.d <- db;
  r1.ld <- imem.q[3];
  imem.a <- pc.q;
  pinc.a <- pc.q;
  pc.d <- pinc.y;
  %[3]s
END.
`

// renderBase lists every template with its static condition, so bases
// extracted into different BDD managers compare as text.
func renderBase(res *Result) string {
	var b strings.Builder
	for _, t := range res.Base.Templates {
		fmt.Fprintf(&b, "%s [%s]\n", t, res.Base.BDD.String(t.Cond.Static))
	}
	return b.String()
}

// TestBusWhenForms extracts and simulates every form a bus WHEN may read:
// a literal, a named constant and a single-driver bus are static control;
// a primary input and a register output are run-time data and become the
// r0 routes' dynamic guard, and its negation the r1 routes' one, so that
// no bus route admits both drivers.
func TestBusWhenForms(t *testing.T) {
	rows := []struct {
		name, decls, when, conns string
		dynamic                  bool
		// on is the run-time state turning a dynamic WHEN on.
		on map[string]int64
		// enable sets the simulator's state so that r0's WHEN is on, and
		// returns the instruction bits that turn it on.
		enable func(s *sim.Simulator, on bool) uint64
	}{
		{name: "literal", when: "imem.q[7] == 1", enable: insnBit7},
		{name: "constant", decls: "CONST ON = 1;", when: "imem.q[7] == ON", enable: insnBit7},
		{name: "bus", decls: "BUS sel: 1;", when: "sel == 1", conns: "sel <- imem.q[7:7];", enable: insnBit7},
		{name: "primary", decls: "PORT IN en: 1;", when: "en == 1", dynamic: true,
			on: map[string]int64{"en": 1},
			enable: func(s *sim.Simulator, on bool) uint64 {
				s.In["en"] = b2i(on)
				return 0
			}},
		{name: "register", when: "dst.q[0] == 1", dynamic: true,
			on: map[string]int64{"dst.r": 1},
			enable: func(s *sim.Simulator, on bool) uint64 {
				s.Mem["dst.r"][0] = b2i(on)
				return 0
			}},
	}
	var literal string
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m, err := hdl.ParseAndCheck(fmt.Sprintf(whenMachine, row.decls, row.when, row.conns))
			if err != nil {
				t.Fatal(err)
			}
			n, err := netlist.Elaborate(m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Extract(n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Dropped != 0 {
				t.Fatalf("%d destinations dropped", res.Stats.Dropped)
			}
			got := renderBase(res)
			switch {
			case row.name == "literal":
				literal = got
			case !row.dynamic && got != literal:
				t.Errorf("base differs from the literal row's:\n%s\nwant:\n%s", got, literal)
			}
			r0 := find(res, ":= r0.r")
			if len(r0) != 3 {
				t.Fatalf("want 3 r0 routes, got:\n%s", got)
			}
			for _, tpl := range r0 {
				if row.dynamic != (len(tpl.Cond.Dynamic) == 1) {
					t.Errorf("r0 route %s: dynamic guards %v", tpl, tpl.Cond.Dynamic)
				}
			}
			r1 := find(res, ":= r1.r")
			if len(r1) != 3 {
				t.Fatalf("want 3 r1 routes, got:\n%s", got)
			}
			for _, tpl := range r1 {
				if row.dynamic != (len(tpl.Cond.Dynamic) == 1) {
					t.Errorf("r1 route %s: dynamic guards %v", tpl, tpl.Cond.Dynamic)
				}
			}
			// Under the WHEN on at run time and instruction bit 6 set,
			// both drivers would drive db: no bus route may admit that.
			if row.dynamic {
				m := res.Base.BDD
				bit6 := m.Var(res.Vars.InsnVars[6])
				for _, tpl := range append(r0, r1...) {
					admits := m.And(tpl.Cond.Static, bit6) != m.False()
					for _, g := range tpl.Cond.Dynamic {
						admits = admits && evalGuard(res.Base.Exprs(), g, row.on) != 0
					}
					if admits {
						t.Errorf("route %s admits the WHEN on with bit 6 set", tpl)
					}
				}
			}

			// Load dst from db: r0 (55) drives it when the condition
			// holds, r1 (77) otherwise; contention or a floating bus
			// fails the cycle.
			for _, on := range []bool{false, true} {
				s := sim.New(n)
				s.Mem["r0.r"][0] = 55
				s.Mem["r1.r"][0] = 77
				word := uint64(1<<5) | row.enable(s, on)
				if !on {
					word |= 1 << 6
				}
				if err := s.RunProgram([]uint64{word}); err != nil {
					t.Fatalf("on=%v: %v", on, err)
				}
				want := int64(77)
				if on {
					want = 55
				}
				if got := s.Mem["dst.r"][0]; got != want {
					t.Errorf("on=%v: dst = %d, want %d", on, got, want)
				}
			}
		})
	}
}

func insnBit7(_ *sim.Simulator, on bool) uint64 { return uint64(b2i(on)) << 7 }

// evalGuard evaluates dynamic guard h of store s over ports and registers
// (cell 0) named in state, at each node's width.
func evalGuard(s *rtl.Store, h rtl.ExprID, state map[string]int64) int64 {
	e, kids := s.Expr(h), s.Kids(h)
	switch e.Kind {
	case rtl.Const:
		return rtl.Wrap(e.Val, e.Width)
	case rtl.PortRef:
		return rtl.Wrap(state[e.Port], e.Width)
	case rtl.Read:
		return rtl.Wrap(state[e.Storage], e.Width)
	case rtl.Slice:
		return rtl.EvalSlice(evalGuard(s, kids[0], state), e.Hi, e.Lo)
	case rtl.OpApp:
		if len(kids) == 1 {
			return rtl.EvalUn(e.Op, evalGuard(s, kids[0], state), e.Width)
		}
		return rtl.EvalBin(e.Op, evalGuard(s, kids[0], state), evalGuard(s, kids[1], state), e.Width)
	}
	panic(fmt.Sprintf("guard %s: unsupported node", s.String(h)))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
