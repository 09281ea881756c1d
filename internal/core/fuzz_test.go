package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/rtl"
)

// randomProgram builds a random straight-line program over a handful of
// scalars and one array, using only operators every test machine supports.
func randomProgram(rng *rand.Rand) *ir.Program {
	scalars := []string{"v0", "v1", "v2", "v3"}
	p := &ir.Program{}
	for _, s := range scalars {
		p.Decls = append(p.Decls, &ir.Decl{
			Name: s, Init: []int64{int64(rng.Intn(2000) - 1000)}})
	}
	p.Decls = append(p.Decls, &ir.Decl{Name: "arr", Size: 4,
		Init: []int64{int64(rng.Intn(100)), int64(rng.Intn(100)),
			int64(rng.Intn(100)), int64(rng.Intn(100))}})

	ops := []rtl.Op{rtl.OpAdd, rtl.OpSub, rtl.OpMul, rtl.OpAnd, rtl.OpOr, rtl.OpXor}
	var gen func(depth int) ir.Expr
	gen = func(depth int) ir.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(4) {
			case 0:
				return &ir.Const{Val: int64(rng.Intn(512) - 256)}
			case 1:
				return &ir.Ref{Name: "arr", Index: &ir.Const{Val: int64(rng.Intn(4))}}
			default:
				return &ir.Ref{Name: scalars[rng.Intn(len(scalars))]}
			}
		}
		if rng.Intn(8) == 0 {
			return &ir.Un{Op: rtl.OpNeg, X: gen(depth - 1)}
		}
		return &ir.Bin{Op: ops[rng.Intn(len(ops))], X: gen(depth - 1), Y: gen(depth - 1)}
	}

	nStmts := 1 + rng.Intn(5)
	for i := 0; i < nStmts; i++ {
		var lhs *ir.Ref
		if rng.Intn(4) == 0 {
			lhs = &ir.Ref{Name: "arr", Index: &ir.Const{Val: int64(rng.Intn(4))}}
		} else {
			lhs = &ir.Ref{Name: scalars[rng.Intn(len(scalars))]}
		}
		p.Body = append(p.Body, &ir.Assign{LHS: lhs, RHS: gen(2 + rng.Intn(2))})
	}
	return p
}

// TestPropRandomProgramsMicro16 compiles random programs and checks the
// netlist simulation against the IR interpreter — the end-to-end fuzz of
// the whole pipeline (selection, scheduling, spilling, splitting,
// peephole, compaction, encoding, simulation).
func TestPropRandomProgramsMicro16(t *testing.T) {
	tg := retargetMicro16(t)
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 150; trial++ {
		p := randomProgram(rng)
		res, err := newCompiler(t, tg).CompileProgramOpts(context.Background(), p, CompileOptions{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\nprogram: %v", trial, err, p.Body)
		}
		if err := tg.CheckAgainstOracle(res); err != nil {
			t.Fatalf("trial %d: %v\nprogram: %v\ncode:\n%s",
				trial, err, p.Body, res.Seq)
		}
	}
}

// TestPropRandomProgramsNoPeephole isolates the peephole pass: raw and
// optimized code must both match the oracle.
func TestPropRandomProgramsNoPeephole(t *testing.T) {
	tg := retargetMicro16(t)
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 60; trial++ {
		p := randomProgram(rng)
		raw, err := newCompiler(t, tg).CompileProgramOpts(context.Background(), p, CompileOptions{NoPeephole: true, NoCompaction: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tg.CheckAgainstOracle(raw); err != nil {
			t.Fatalf("trial %d (raw): %v", trial, err)
		}
	}
}
