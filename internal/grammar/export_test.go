package grammar

import "repro/internal/rtl"

// Lower exposes lower to the external tests.
func (g *Grammar) Lower(e *rtl.Expr) (*Pat, error) { return g.lower(e) }
