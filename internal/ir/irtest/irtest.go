// Package irtest holds a seeded corpus of control-flow programs for tests
// that compile the same programs in several packages.
package irtest

import (
	"fmt"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/rtl"
)

// RandomCF generates a structured random program with nested if/while
// over a few scalars, with loops guaranteed to terminate (each while
// decrements a dedicated counter).
func RandomCF(rng *rand.Rand) *ir.Program {
	scalars := []string{"v0", "v1", "v2"}
	p := &ir.Program{}
	for i, s := range scalars {
		p.Decls = append(p.Decls, &ir.Decl{Name: s,
			Init: []int64{int64(rng.Intn(50) + i)}})
	}
	counters := 0

	ops := []rtl.Op{rtl.OpAdd, rtl.OpSub, rtl.OpAnd, rtl.OpOr, rtl.OpXor}
	rels := []rtl.Op{rtl.OpLt, rtl.OpLe, rtl.OpEq, rtl.OpNe, rtl.OpGt, rtl.OpGe}

	var genExpr func(depth int) ir.Expr
	genExpr = func(depth int) ir.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(3) == 0 {
				return &ir.Const{Val: int64(rng.Intn(64) - 32)}
			}
			return &ir.Ref{Name: scalars[rng.Intn(len(scalars))]}
		}
		return &ir.Bin{Op: ops[rng.Intn(len(ops))],
			X: genExpr(depth - 1), Y: genExpr(depth - 1)}
	}
	genCond := func() ir.Expr {
		return &ir.Bin{Op: rels[rng.Intn(len(rels))],
			X: &ir.Ref{Name: scalars[rng.Intn(len(scalars))]},
			Y: &ir.Const{Val: int64(rng.Intn(40))}}
	}

	var genStmts func(depth, n int) []ir.Stmt
	genStmts = func(depth, n int) []ir.Stmt {
		var out []ir.Stmt
		for i := 0; i < n; i++ {
			switch {
			case depth > 0 && rng.Intn(4) == 0:
				st := &ir.If{Cond: genCond(), Then: genStmts(depth-1, 1+rng.Intn(2))}
				if rng.Intn(2) == 0 {
					st.Else = genStmts(depth-1, 1+rng.Intn(2))
				}
				out = append(out, st)
			case depth > 0 && rng.Intn(5) == 0:
				// Bounded loop via a fresh counter.
				cname := fmt.Sprintf("c%d", counters)
				counters++
				p.Decls = append(p.Decls, &ir.Decl{Name: cname,
					Init: []int64{int64(rng.Intn(5) + 1)}})
				body := genStmts(depth-1, 1+rng.Intn(2))
				body = append(body, &ir.Assign{LHS: &ir.Ref{Name: cname},
					RHS: &ir.Bin{Op: rtl.OpSub,
						X: &ir.Ref{Name: cname}, Y: &ir.Const{Val: 1}}})
				out = append(out, &ir.While{
					Cond: &ir.Bin{Op: rtl.OpGt,
						X: &ir.Ref{Name: cname}, Y: &ir.Const{Val: 0}},
					Body: body,
				})
			default:
				out = append(out, &ir.Assign{
					LHS: &ir.Ref{Name: scalars[rng.Intn(len(scalars))]},
					RHS: genExpr(2),
				})
			}
		}
		return out
	}
	p.Body = genStmts(2, 2+rng.Intn(4))
	return p
}

// Collatz is the Collatz program of examples/controlflow in RecC.
const Collatz = `
int n = 27;
int steps;
int peak;

void main() {
  steps = 0;
  peak = n;
  while (n != 1) {
    if ((n & 1) == 1) { n = 3*n + 1; }
    else { n = n >> 1; }
    if (n > peak) { peak = n; }
    steps = steps + 1;
  }
}
`
