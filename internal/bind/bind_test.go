package bind

import (
	"testing"

	"repro/internal/cfront"
	"repro/internal/hdl"
	"repro/internal/ir"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// dualMem has a 64-cell RAM plus a 32-cell ROM.
const dualMem = `
PROCESSOR bindtest;
MODULE Ram (IN a: 6; IN d: 16; IN w: 1; OUT q: 16);
VAR m: 16 [64];
BEGIN q <- m[a]; AT w == 1 DO m[a] <- d; END;
MODULE CRom (IN a: 5; OUT q: 16);
VAR m: 16 [32];
BEGIN q <- m[a]; END;
MODULE IRom (IN a: 4; OUT q: 16);
VAR m: 16 [16];
BEGIN q <- m[a]; END;
MODULE PcReg (IN d: 4; OUT q: 4);
VAR r: 4;
BEGIN q <- r; r <- d; END;
MODULE Inc (IN a: 4; OUT y: 4);
BEGIN y <- a + 1; END;
PARTS
  ram : Ram; crom : CRom; imem : IRom INSTRUCTION; pc : PcReg PC; pinc : Inc;
CONNECT
  ram.a <- imem.q[5:0];
  ram.d <- imem.q;
  ram.w <- imem.q[15];
  crom.a <- imem.q[4:0];
  imem.a <- pc.q;
  pinc.a <- pc.q;
  pc.d <- pinc.y;
END.
`

func net(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	m, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func prog(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := cfront.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBindLayout(t *testing.T) {
	p := prog(t, `
int x;
int a[4] = {1,2,3,4};
int b[4] = {5,6,7,8};
int c[4];
void main() { x = a[0]; c[0] = x; }
`)
	b, err := Bind(p, net(t, dualMem))
	if err != nil {
		t.Fatal(err)
	}
	if b.Primary.Memory != "ram.m" || b.Primary.Size != 64 {
		t.Errorf("primary = %+v", b.Primary)
	}
	if b.ROM == nil || b.ROM.Memory != "crom.m" {
		t.Fatalf("ROM = %+v", b.ROM)
	}
	// a is the first constant array -> ROM; b alternates back to primary;
	// c is written -> primary.
	pa, _ := b.AddrOf("a")
	pb, _ := b.AddrOf("b")
	pc, _ := b.AddrOf("c")
	px, _ := b.AddrOf("x")
	if pa.Storage != "crom.m" {
		t.Errorf("a placed in %s", pa.Storage)
	}
	if pb.Storage != "ram.m" || pc.Storage != "ram.m" || px.Storage != "ram.m" {
		t.Errorf("b/c/x placements: %v %v %v", pb, pc, px)
	}
	if b.ScratchLen < MinScratchCells {
		t.Errorf("scratch = %d", b.ScratchLen)
	}
}

func TestBindOverflow(t *testing.T) {
	p := prog(t, `int big[100]; big[0] = 1;`)
	if _, err := Bind(p, net(t, dualMem)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestLowerExprShapes(t *testing.T) {
	p := prog(t, `
int x = 1;
int a[4] = {1,2,3,4};
int y;
void main() { y = x + a[2]; }
`)
	b, err := Bind(p, net(t, dualMem))
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.LowerExpr(&ir.Bin{Op: rtl.OpAdd,
		X: &ir.Ref{Name: "x"},
		Y: &ir.Ref{Name: "a", Index: &ir.Const{Val: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Exprs().Expr(h)
	if e.Kind != rtl.OpApp || e.Op != rtl.OpAdd {
		t.Fatalf("lowered = %s", e)
	}
	if e.Kids[0].Storage != "ram.m" || e.Kids[1].Storage != "crom.m" {
		t.Errorf("leaf storages: %s, %s", e.Kids[0].Storage, e.Kids[1].Storage)
	}
	// The address constant is base + 2 at ROM address width.
	pa, _ := b.AddrOf("a")
	if addr := e.Kids[1].Addr(); addr.Val != int64(pa.Addr+2) {
		t.Errorf("a[2] address = %d", addr.Val)
	}
	// Constants wrap at word width.
	h, err = b.LowerExpr(&ir.Const{Val: 70000})
	if err != nil {
		t.Fatal(err)
	}
	c := b.Exprs().Expr(h)
	if c.Val != rtl.Wrap(70000, 16) {
		t.Errorf("const = %d", c.Val)
	}
}

func TestSubConstBecomesAddNeg(t *testing.T) {
	p := prog(t, `int x = 9; int y; y = x - 3;`)
	b, err := Bind(p, net(t, dualMem))
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.LowerExpr(&ir.Bin{Op: rtl.OpSub,
		X: &ir.Ref{Name: "x"}, Y: &ir.Const{Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Exprs().Expr(h)
	if e.Op != rtl.OpAdd || e.Kids[1].Val != -3 {
		t.Errorf("lowered = %s", e)
	}
}

func TestLowerErrors(t *testing.T) {
	p := prog(t, `int x; int a[4]; x = 0; a[0] = 0;`)
	b, err := Bind(p, net(t, dualMem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.LowerExpr(&ir.Ref{Name: "ghost"}); err == nil {
		t.Error("unbound variable lowered")
	}
	if _, err := b.LowerExpr(&ir.Ref{Name: "a"}); err == nil {
		t.Error("array without index lowered")
	}
	if _, err := b.LowerExpr(&ir.Ref{Name: "x", Index: &ir.Const{Val: 0}}); err == nil {
		t.Error("indexed scalar lowered")
	}
	if _, err := b.LowerExpr(&ir.Ref{Name: "a", Index: &ir.Const{Val: 9}}); err == nil {
		t.Error("out-of-range index lowered")
	}
}

func TestLowerProgramAndImages(t *testing.T) {
	p := prog(t, `
int k[2] = {3, 4};
int s;
void main() { s = k[0] + k[1]; }
`)
	b, err := Bind(p, net(t, dualMem))
	if err != nil {
		t.Fatal(err)
	}
	ets, err := b.LowerProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ets) != 1 || ets[0].Dest != "ram.m" {
		t.Fatalf("ets = %+v", ets)
	}
	imgs := b.InitialImages(p)
	pk, _ := b.AddrOf("k")
	if imgs[pk.Storage][pk.Addr] != 3 || imgs[pk.Storage][pk.Addr+1] != 4 {
		t.Errorf("ROM image wrong: %v", imgs[pk.Storage][:4])
	}
	if len(imgs["ram.m"]) != 64 {
		t.Error("primary image size wrong")
	}
}

func TestRuntimeIndexLowering(t *testing.T) {
	p := prog(t, `int a[4]; int i; int y; a[0]=0; i = 1; y = a[i];`)
	b, err := Bind(p, net(t, dualMem))
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.LowerExpr(&ir.Ref{Name: "a", Index: &ir.Ref{Name: "i"}})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Exprs().Expr(h)
	addr := e.Addr()
	if addr.Kind != rtl.OpApp || addr.Op != rtl.OpAdd {
		t.Fatalf("runtime address = %s", addr)
	}
	if addr.Width != b.Primary.AddrWidth {
		t.Errorf("address width = %d", addr.Width)
	}
}
