package rewrite

import (
	"testing"

	"repro/internal/models"
	"repro/internal/rtl"
)

// extendFresh is Extend without the per-source memo: every template's
// variants are recomputed, filtered against its own source with Equal,
// and added as a new template.
func extendFresh(base *rtl.Base, opts Options) {
	snapshot := append([]*rtl.Template(nil), base.Templates...)
	for _, t := range snapshot {
		var vs []*rtl.Expr
		if opts.Commutativity {
			vs = append(vs, commuteVariants(t.Src, opts.MaxVariantsPerTemplate)...)
		}
		for _, r := range opts.Rules {
			vs = append(vs, ruleVariants(t.Src, r, opts.MaxVariantsPerTemplate)...)
		}
		for _, v := range vs {
			if v.Equal(t.Src) {
				continue
			}
			base.Add(&rtl.Template{
				Dest:      t.Dest,
				DestPort:  t.DestPort,
				DestAddr:  t.DestAddr,
				Src:       v,
				Width:     t.Width,
				Cond:      t.Cond,
				Synthetic: true,
			})
		}
	}
}

// TestExtendMemoMatchesFresh extends every bundled model's extracted base
// twice, once by Extend and once by a per-template recompute, under a few
// option sets, and requires the same template list: IDs, destinations,
// address and source renderings, condition nodes and provenance.
func TestExtendMemoMatchesFresh(t *testing.T) {
	bundled := models.All()
	brancher, _ := models.Get("brancher")
	bundled = append(bundled, models.Entry{Name: "brancher", MDL: brancher})
	noComm := DefaultOptions()
	noComm.Commutativity = false
	tight := DefaultOptions()
	tight.MaxVariantsPerTemplate = 3
	for _, m := range bundled {
		for oi, opts := range []Options{DefaultOptions(), noComm, tight} {
			memo, fresh := extractedBase(t, m.MDL), extractedBase(t, m.MDL)
			Extend(memo, opts)
			extendFresh(fresh, opts)
			if memo.Len() != fresh.Len() {
				t.Fatalf("%s/%d: %d templates; per-template recompute gives %d", m.Name, oi, memo.Len(), fresh.Len())
			}
			for i, a := range memo.Templates {
				b := fresh.Templates[i]
				if a.ID != b.ID || a.Dest != b.Dest || a.DestPort != b.DestPort ||
					a.DestAddr.String() != b.DestAddr.String() || a.Src.String() != b.Src.String() ||
					!a.Src.Equal(b.Src) || a.Width != b.Width ||
					a.Cond.Static != b.Cond.Static || len(a.Cond.Dynamic) != len(b.Cond.Dynamic) ||
					a.Synthetic != b.Synthetic {
					t.Fatalf("%s/%d: template %d is %s (cond %d, synthetic %v); per-template recompute gives %s (cond %d, synthetic %v)",
						m.Name, oi, i, a, a.Cond.Static, a.Synthetic, b, b.Cond.Static, b.Synthetic)
				}
			}
		}
	}
}
