package asm

import (
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/code"
	"repro/internal/hdl"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/netlist"
	"repro/internal/rewrite"
	"repro/internal/rtl"
)

// Micro16T is a compact accumulator machine exercising encoding paths.
const Micro16T = `
PROCESSOR enctest;
CONST WORD = 16;

MODULE Alu (IN a: WORD; IN b: WORD; IN op: 3; OUT y: WORD);
BEGIN
  y <- CASE op OF 0: a + b; 1: a - b; 2: a & b; 3: a | b;
                  4: a ^ b; 5: b; 6: a * b; 7: -b; END;
END;

MODULE BMux (IN m: WORD; IN imm: WORD; IN s: 1; OUT y: WORD);
BEGIN
  y <- CASE s OF 0: m; 1: imm; END;
END;

MODULE Reg (IN d: WORD; IN ld: 1; OUT q: WORD);
VAR r: WORD;
BEGIN q <- r; AT ld == 1 DO r <- d; END;

MODULE Ram (IN a: 8; IN d: WORD; IN w: 1; OUT q: WORD);
VAR m: WORD [256];
BEGIN q <- m[a]; AT w == 1 DO m[a] <- d; END;

MODULE Rom (IN a: 8; OUT q: 32);
VAR m: 32 [256];
BEGIN q <- m[a]; END;

MODULE Inc (IN a: 8; OUT y: 8);
BEGIN y <- a + 1; END;

MODULE PcReg (IN d: 8; OUT q: 8);
VAR r: 8;
BEGIN q <- r; r <- d; END;

PARTS
  alu  : Alu;
  bmux : BMux;
  acc  : Reg;
  ram  : Ram;
  imem : Rom INSTRUCTION;
  pc   : PcReg PC;
  pinc : Inc;

CONNECT
  alu.a    <- acc.q;
  alu.b    <- bmux.y;
  alu.op   <- imem.q[31:29];
  bmux.m   <- ram.q;
  bmux.imm <- imem.q[15:0];
  bmux.s   <- imem.q[28];
  acc.d    <- alu.y;
  acc.ld   <- imem.q[27];
  ram.a    <- imem.q[7:0];
  ram.d    <- acc.q;
  ram.w    <- imem.q[26];
  imem.a   <- pc.q;
  pinc.a   <- pc.q;
  pc.d     <- pinc.y;
END.
`

// TestFreezeSoloMatchesStorageByStorage checks that a session's
// condition for a single RT is the very node the storage-by-storage
// conjunction reaches: the template's static condition conjoined with
// ¬quiesce of every suppressible storage other than its own destination,
// in sorted order.  Port drives and background destinations have no
// quiescence entry of their own, so they conjoin every storage.
func TestFreezeSoloMatchesStorageByStorage(t *testing.T) {
	var ports, background int
	for name, src := range freezeSources() {
		t.Run(name, func(t *testing.T) {
			e, bg := unfrozenEncoder(t, src)
			storages := e.storageList
			want := make(map[*rtl.Template]bdd.Node, e.Base.Len())
			for _, tp := range e.Base.Templates {
				cond := tp.Cond.Static
				for _, s := range storages {
					if !tp.DestPort && s == tp.Dest {
						continue
					}
					cond = e.m.And(cond, e.m.Not(e.quiesce[s]))
				}
				want[tp] = cond
				switch {
				case tp.DestPort:
					ports++
				case bg[tp.Dest]:
					background++
				}
			}
			e.Freeze()
			s := e.NewSession()
			for _, tp := range e.Base.Templates {
				if got := s.setCond([]*code.Instr{{Template: tp}}); got != want[tp] {
					t.Errorf("template %d (%s): the session's single-RT condition differs from the storage-by-storage conjunction", tp.ID, tp)
				}
			}
		})
	}
	if ports == 0 || background == 0 {
		t.Errorf("coverage: %d port-drive and %d background-destination templates; want both > 0", ports, background)
	}
}

// TestFreezeAddsNoPerTemplateNodes checks that Freeze builds no word
// condition per template: NewEncoder has already built the negated
// quiescence conditions, so Freeze adds no node to the manager.
func TestFreezeAddsNoPerTemplateNodes(t *testing.T) {
	for name, src := range freezeSources() {
		t.Run(name, func(t *testing.T) {
			e, _ := unfrozenEncoder(t, src)
			before := e.m.Size()
			e.Freeze()
			if added := e.m.Size() - before; added != 0 {
				t.Errorf("Freeze added %d nodes to a manager of %d; want none", added, before)
			}
		})
	}
}

// freezeSources returns every bundled model, brancher and two micro16
// variants by name.  No bundled model drives a primary output, so the
// variant with one covers the DestPort templates.
func freezeSources() map[string]string {
	withPort := strings.Replace(Micro16T, "PARTS", "PORT OUT dout : WORD;\nPARTS", 1)
	withPort = strings.Replace(withPort, "CONNECT", "CONNECT\n  dout <- alu.y;", 1)
	sources := map[string]string{"micro16": Micro16T, "micro16+port": withPort}
	for _, e := range models.All() {
		sources[e.Name] = e.MDL
	}
	sources["brancher"], _ = models.Get("brancher")
	return sources
}

// TestNewSessionBeforeFreezePanics: encoding needs the frozen tables, so
// opening a session before Freeze is a caller bug.
func TestNewSessionBeforeFreezePanics(t *testing.T) {
	e, _ := unfrozenEncoder(t, Micro16T)
	defer func() {
		if _, ok := recover().(bdd.InvariantError); !ok {
			t.Fatal("NewSession on an unfrozen encoder did not panic with bdd.InvariantError")
		}
	}()
	e.NewSession()
}

// unfrozenEncoder runs the retarget pipeline up to (not including) Freeze,
// the way core.RetargetContext does, and returns the encoder with its set
// of background (PC) storages.
func unfrozenEncoder(t *testing.T, src string) (*Encoder, map[string]bool) {
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
	rewrite.Extend(res.Base, rewrite.DefaultOptions())
	var background []string
	bg := make(map[string]bool)
	for _, st := range net.Seq {
		if st.PC {
			background = append(background, st.QName())
			bg[st.QName()] = true
		}
	}
	return NewEncoder(res.Vars, res.Base, background...), bg
}
