package asm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/code"
	"repro/internal/models"
	"repro/internal/rtl"
)

// The fmt-based renderers Listing, Template.String and Expr.String used
// before they moved to one strings.Builder; kept as the reference for
// byte-identical output.

func fmtExpr(e *rtl.Expr) string {
	if e == nil {
		return "<nil>"
	}
	switch e.Kind {
	case rtl.Const:
		return fmt.Sprintf("%d", e.Val)
	case rtl.PortRef:
		return e.Port
	case rtl.InsnField:
		if e.Hi == e.Lo {
			return fmt.Sprintf("IW[%d]", e.Lo)
		}
		return fmt.Sprintf("IW[%d:%d]", e.Hi, e.Lo)
	case rtl.Read:
		if a := e.Addr(); a != nil {
			return fmt.Sprintf("%s[%s]", e.Storage, fmtExpr(a))
		}
		return e.Storage
	case rtl.Slice:
		return fmt.Sprintf("%s[%d:%d]", fmtExpr(e.Kids[0]), e.Hi, e.Lo)
	case rtl.OpApp:
		if e.Op.Arity() == 1 {
			return fmt.Sprintf("%s(%s)", e.Op, fmtExpr(e.Kids[0]))
		}
		return fmt.Sprintf("(%s %s %s)", fmtExpr(e.Kids[0]), e.Op, fmtExpr(e.Kids[1]))
	}
	return "<bad expr>"
}

func fmtTemplate(t *rtl.Template) string {
	dest := t.Dest
	if t.DestAddr != nil {
		dest = fmt.Sprintf("%s[%s]", t.Dest, fmtExpr(t.DestAddr))
	}
	var dyn string
	if len(t.Cond.Dynamic) > 0 {
		parts := make([]string, len(t.Cond.Dynamic))
		for i, d := range t.Cond.Dynamic {
			parts[i] = fmtExpr(d)
		}
		dyn = " when " + strings.Join(parts, " && ")
	}
	return fmt.Sprintf("%s := %s%s", dest, fmtExpr(t.Src), dyn)
}

func fmtListing(e *Encoder, p *code.Program) string {
	var b strings.Builder
	width := (e.Vars.InsnWidth() + 3) / 4
	for i, w := range p.Words {
		fmt.Fprintf(&b, "%04d  %0*x  ", i, width, w.Bits)
		parts := make([]string, len(w.Instrs))
		for j, in := range w.Instrs {
			parts[j] = fmtTemplate(in.Template)
		}
		b.WriteString(strings.Join(parts, " || "))
		for _, in := range w.Instrs {
			if in.Comment != "" {
				fmt.Fprintf(&b, "  ; %s", in.Comment)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestListingMatchesFmt renders every template of every bundled model, and
// a listing over all of them, through both renderers.  The program runs
// past word 9999 so the four-digit index overflows as fmt's %04d does,
// and its bits range over the full 64 bits so the hex field overflows its
// width too.
func TestListingMatchesFmt(t *testing.T) {
	sources := map[string]string{"micro16": Micro16T}
	for _, e := range models.All() {
		sources[e.Name] = e.MDL
	}
	sources["brancher"], _ = models.Get("brancher")
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			e, _ := unfrozenEncoder(t, src)
			var instrs []*code.Instr
			for _, tp := range e.Base.Templates {
				if got, want := tp.String(), fmtTemplate(tp); got != want {
					t.Fatalf("template %d renders as %q; fmt gives %q", tp.ID, got, want)
				}
				tp.Src.Walk(func(k *rtl.Expr) {
					if k.Kind == rtl.OpApp {
						seen[fmt.Sprint("arity ", k.Op.Arity())]++
					} else {
						seen[fmt.Sprint("kind ", k.Kind)]++
					}
					if got, want := k.String(), fmtExpr(k); got != want {
						t.Fatalf("expression renders as %q; fmt gives %q", got, want)
					}
				})
				if tp.DestAddr != nil {
					seen["addr"]++
				}
				if len(tp.Cond.Dynamic) > 0 {
					seen["dynamic"]++
				}
				instrs = append(instrs, &code.Instr{Template: tp, Comment: fmt.Sprintf("t%d", tp.ID%3)})
			}
			instrs[0].Comment = ""
			p := &code.Program{}
			for i := 0; i < 10005; i++ {
				w := &code.Word{Bits: rng.Uint64() >> uint(rng.Intn(64))}
				for j := 0; j <= i%3; j++ {
					w.Instrs = append(w.Instrs, instrs[(i+j)%len(instrs)])
				}
				p.Words = append(p.Words, w)
			}
			if got, want := e.Listing(p), fmtListing(e, p); got != want {
				t.Fatalf("listing differs from the fmt rendering:\n%.300s\n---\n%.300s", got, want)
			}
		})
	}
	// No bundled model reads an input port or a one-bit instruction
	// field; cover both directly.
	port := rtl.NewOp(rtl.OpAdd, 16, rtl.NewPort("din", 16),
		rtl.NewOp(rtl.OpOr, 16, rtl.NewSlice(3, 0, rtl.NewInsnField(7, 0)), rtl.NewInsnField(5, 5)))
	if got, want := port.String(), fmtExpr(port); got != want {
		t.Errorf("expression renders as %q; fmt gives %q", got, want)
	}
	for _, k := range []rtl.ExprKind{rtl.Const, rtl.Read, rtl.InsnField, rtl.Slice} {
		if seen[fmt.Sprint("kind ", k)] == 0 {
			t.Errorf("coverage: no template expression of kind %d", k)
		}
	}
	for _, k := range []string{"arity 1", "arity 2", "addr", "dynamic"} {
		if seen[k] == 0 {
			t.Errorf("coverage: no %q in any template", k)
		}
	}
}
