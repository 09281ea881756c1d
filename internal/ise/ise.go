// Package ise implements instruction-set extraction (ISE): it derives the
// complete set of valid RT templates from the elaborated netlist model
// (paper section 2; Leupers/Marwedel ED&TC 1995).
//
// ISE performs the paper's two steps:
//
//   - Enumeration of data transfer routes.  For every RT destination
//     (register, memory cell, primary output port) a backwards traversal of
//     the netlist collects all routes delivering a value within a single
//     machine cycle.  Traversal crosses interconnect, tristate busses and
//     combinational modules; it forks at multiple-input modules (CASE-
//     controlled functional units and multiplexers, bus drivers) and stops
//     at storage reads, primary inputs, hardwired constants and instruction
//     fields (immediates).  Every route yields a tree-shaped RT template.
//
//   - Analysis of control signals.  Conditions governing a route — guard
//     expressions, CASE selector matches and tristate enables — are traced
//     back through arbitrary decoder logic to the primary control sources:
//     instruction-word bits and mode-register bits.  Each template's
//     execution condition is a BDD over those bits; templates whose
//     condition is unsatisfiable (encoding conflicts, bus contention) are
//     discarded.  Conditions that depend on run-time data (e.g. a status
//     flag steering a conditional jump) are kept as residual dynamic
//     guards.
package ise

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bdd"
	"repro/internal/bitvec"
	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rtl"
)

// Options tunes extraction.
type Options struct {
	// MaxAlts bounds the number of alternative routes considered per
	// traversal point, guarding against pathological fan-in explosion.
	MaxAlts int
	// MaxTemplates bounds the final template count.
	MaxTemplates int
	// MSBFirstVars declares instruction-word BDD variables MSB-first
	// instead of LSB-first (variable-order ablation; conditions are
	// typically decoded from high opcode bits, so order affects BDD size).
	MSBFirstVars bool
	// Reporter receives a warning for every destination dropped during
	// degraded extraction.  nil is safe: warnings are discarded.
	Reporter *diag.Reporter
	// Budget bounds extraction effort (deadline, BDD node cap).  When it
	// is exhausted mid-extraction, enumeration stops and the partial
	// template base built so far is returned.  nil means unlimited.
	Budget *diag.Budget
	// Obs receives per-destination traversal spans and the extraction
	// instruments (routes enumerated, templates discarded by reason, BDD
	// work).  nil is safe: instrumentation is skipped.
	Obs *obs.Scope
}

// DefaultOptions returns the limits used by the paper-scale models.
func DefaultOptions() Options {
	return Options{MaxAlts: 4096, MaxTemplates: 65536}
}

// VarMap records how BDD variables map onto control sources.
type VarMap struct {
	M *bdd.Manager
	// InsnVars[i] is the BDD variable index of instruction word bit i.
	InsnVars []int
	// ModeVars maps a mode storage qualified name to the BDD variable
	// indices of its bits (LSB first).
	ModeVars map[string][]int
	// insnBit[x] is 1 + the instruction bit of BDD variable x, 0 when x is
	// no instruction bit; indexInsnVars builds it from InsnVars.
	insnBit []int32
}

// InsnWidth returns the instruction word width.
func (v *VarMap) InsnWidth() int { return len(v.InsnVars) }

// IsInsnVar reports whether BDD variable x is an instruction bit, returning
// the bit position.
func (v *VarMap) IsInsnVar(x int) (bit int, ok bool) {
	if x < 0 || x >= len(v.insnBit) || v.insnBit[x] == 0 {
		return 0, false
	}
	return int(v.insnBit[x]) - 1, true
}

// indexInsnVars builds IsInsnVar's table once InsnVars is complete.
func (v *VarMap) indexInsnVars() {
	n := 0
	for _, x := range v.InsnVars {
		n = max(n, x+1)
	}
	v.insnBit = make([]int32, n)
	for i, x := range v.InsnVars {
		v.insnBit[x] = int32(i) + 1
	}
}

// ModeVarOwner returns the mode storage owning BDD variable x, with the bit
// position, or "" when x is not a mode bit.
func (v *VarMap) ModeVarOwner(x int) (storage string, bit int) {
	for name, vars := range v.ModeVars {
		for i, mv := range vars {
			if mv == x {
				return name, i
			}
		}
	}
	return "", 0
}

// Stats reports extraction effort.
type Stats struct {
	RoutesEnumerated int // candidate templates before pruning
	Unsatisfiable    int // discarded: conflicting execution conditions
	// The paper's section 4 splits the unsatisfiable discards by cause;
	// UnsatEncoding + UnsatBus == Unsatisfiable.
	UnsatEncoding int // instruction-encoding conflicts (guards, CASE selectors)
	UnsatBus      int // tristate bus contention (exclusivity violated)
	// DiscardedBudget counts templates already enumerated but thrown away
	// because the extraction budget ran out mid-destination.
	DiscardedBudget int
	Templates       int // final template count
	BDDNodes        int // size of the BDD universe after extraction
	// Dropped counts RT destinations abandoned after route explosion,
	// unsupported constructs or recovered panics; the rest of the
	// instruction set is still extracted (degraded mode).
	Dropped int
	// Partial is set when the Budget ran out mid-extraction and later
	// destinations were never visited.
	Partial bool
}

// Result is the output of extraction.
type Result struct {
	Base  *rtl.Base
	Vars  *VarMap
	Stats Stats
	// Net is the netlist the base was extracted from.
	Net *netlist.Netlist
}

// Extract runs instruction-set extraction on an elaborated netlist.
//
// Extraction degrades gracefully: when route enumeration for one RT
// destination explodes past Options.MaxAlts, hits an unsupported construct
// or panics on a pipeline invariant, only that destination is dropped (with
// a warning on Options.Reporter) and the remaining instruction set is still
// extracted.  Extract returns an error only when nothing usable survives or
// the failure precedes enumeration.
func Extract(n *netlist.Netlist, opts Options) (*Result, error) {
	if opts.MaxAlts <= 0 {
		opts.MaxAlts = DefaultOptions().MaxAlts
	}
	if opts.MaxTemplates <= 0 {
		opts.MaxTemplates = DefaultOptions().MaxTemplates
	}
	x := &extractor{
		n:       n,
		opts:    opts,
		m:       bdd.New(),
		outMemo: make(map[string][]alt),
		symMemo: make(map[string]symResult),
		scope:   opts.Obs,
	}
	if reg := opts.Obs.Registry(); reg != nil {
		x.cRoutes = reg.Counter("record_ise_routes_enumerated_total",
			"Candidate data-transfer routes enumerated before pruning.")
		disc := reg.CounterVec("record_ise_templates_discarded_total",
			"Templates discarded during extraction, by reason.", "reason")
		x.cDiscEnc = disc.With("encoding-conflict")
		x.cDiscBus = disc.With("bus-contention")
		x.cDiscBudget = disc.With("budget")
		x.cDropped = reg.Counter("record_ise_destinations_dropped_total",
			"RT destinations abandoned during degraded extraction.")
		x.cTemplates = reg.Counter("record_ise_templates_extracted_total",
			"Templates delivered into the base.")
		x.m.Instrument(
			reg.Counter("record_bdd_nodes_allocated_total",
				"Canonical BDD nodes allocated during control-signal analysis."),
			reg.Counter("record_bdd_ite_ops_total",
				"BDD Ite operations (including recursive steps)."))
	}
	x.declareVars()
	if err := x.run(); err != nil {
		return nil, err
	}
	x.res.Stats.Templates = x.res.Base.Len()
	x.res.Stats.BDDNodes = x.m.Size()
	if x.res.Base.Len() == 0 && x.res.Stats.Dropped > 0 {
		return nil, fmt.Errorf("ise: no usable templates: all %d destinations dropped", x.res.Stats.Dropped)
	}
	return x.res, nil
}

// alt is one alternative route: a pattern with the conditions required to
// steer the hardware along it.
type alt struct {
	expr *rtl.Expr
	cond bdd.Node
	dyn  []*rtl.Expr
}

type symResult struct {
	vec bitvec.Vec
	ok  bool
}

type extractor struct {
	n    *netlist.Netlist
	opts Options
	m    *bdd.Manager
	vars *VarMap
	res  *Result

	// Observability: per-destination spans hang off scope; counters are
	// resolved once in Extract (nil when uninstrumented).
	scope       *obs.Scope
	cRoutes     *obs.Counter
	cDiscEnc    *obs.Counter
	cDiscBus    *obs.Counter
	cDiscBudget *obs.Counter
	cDropped    *obs.Counter
	cTemplates  *obs.Counter

	outMemo map[string][]alt     // "inst.port" -> route alternatives
	symMemo map[string]symResult // "inst.port" -> symbolic control value

	// pending buffers the current destination's templates; they reach the
	// base only if the whole destination enumerates successfully, so a
	// dropped destination leaves no half-enumerated alternatives behind.
	pending []*rtl.Template
}

// declareVars declares instruction bits first (they dominate conditions),
// then mode-register bits.
func (x *extractor) declareVars() {
	v := &VarMap{M: x.m, ModeVars: make(map[string][]int)}
	v.InsnVars = make([]int, x.n.InsnWidth)
	if x.opts.MSBFirstVars {
		for i := x.n.InsnWidth - 1; i >= 0; i-- {
			v.InsnVars[i] = x.m.DeclareVar(fmt.Sprintf("I%d", i))
		}
	} else {
		for i := 0; i < x.n.InsnWidth; i++ {
			v.InsnVars[i] = x.m.DeclareVar(fmt.Sprintf("I%d", i))
		}
	}
	v.indexInsnVars()
	for _, s := range x.n.ModeStorages() {
		var bits []int
		for b := 0; b < s.Width(); b++ {
			bits = append(bits, x.m.DeclareVar(fmt.Sprintf("M.%s.%d", s.QName(), b)))
		}
		v.ModeVars[s.QName()] = bits
	}
	x.vars = v
	x.res = &Result{Base: rtl.NewBase(x.m), Vars: v, Net: x.n}
}

func (x *extractor) run() error {
	if err := faultpoint.Hit("ise.extract", x.n.Name); err != nil {
		return fmt.Errorf("ise: %w", err)
	}
	// RT destinations: every write statement of every data storage ...
	for _, s := range x.n.DataStorages() {
		inst := s.Inst
		for _, st := range inst.Mod.Stmts {
			if st.LHS.Var == nil || st.LHS.Name != s.Var.Name {
				continue
			}
			if stop := x.extractDest(s.QName(), func() error {
				return x.extractWrite(s, inst, st)
			}); stop {
				return nil
			}
		}
	}
	// ... plus primary output ports, in deterministic order.
	outs := make([]string, 0, len(x.n.PrimaryOut))
	for name := range x.n.PrimaryOut {
		outs = append(outs, name)
	}
	sort.Strings(outs)
	for _, name := range outs {
		drv := x.n.PrimaryOut[name]
		if stop := x.extractDest(name, func() error {
			alts, err := x.resolveDriver(drv)
			if err != nil {
				return err
			}
			for _, a := range alts {
				x.emit(&rtl.Template{
					Dest:     name,
					DestPort: true,
					Src:      a.expr,
					Width:    drv.Width,
					Cond:     rtl.ExecCond{Static: a.cond, Dynamic: a.dyn},
				})
			}
			return nil
		}); stop {
			return nil
		}
	}
	return nil
}

// extractDest enumerates one RT destination under a recovery boundary.
// A route error or recovered panic drops only this destination with a
// warning; budget exhaustion stops extraction entirely, keeping the
// partial base (stop=true).  Buffered templates reach the base only on
// success.  Each destination is one traversal span with its outcome and
// template count as attributes.
func (x *extractor) extractDest(dest string, fn func() error) (stop bool) {
	x.pending = x.pending[:0]
	sp, _ := x.scope.Start("ise.dest", obs.KV("dest", dest))
	defer sp.End()
	err := faultpoint.Hit("ise.route.explosion", dest)
	if err != nil {
		err = fmt.Errorf("ise: route explosion in %s (limit %d): %w", dest, x.opts.MaxAlts, err)
	} else {
		err = diag.Capture(func() error {
			if err := x.opts.Budget.Exceeded(); err != nil {
				return err
			}
			if err := x.opts.Budget.NodesExceeded(x.m.Size()); err != nil {
				return err
			}
			return fn()
		})
	}
	if err == nil {
		for _, t := range x.pending {
			x.res.Base.Add(t)
		}
		x.cTemplates.Add(len(x.pending))
		sp.SetAttr("templates", len(x.pending))
		sp.SetAttr("outcome", "ok")
		x.pending = x.pending[:0]
		return false
	}
	enumerated := len(x.pending)
	x.pending = x.pending[:0]
	var be *diag.BudgetError
	if errors.As(err, &be) {
		x.res.Stats.Partial = true
		x.res.Stats.DiscardedBudget += enumerated
		x.cDiscBudget.Add(enumerated)
		sp.SetAttr("outcome", "budget")
		x.opts.Reporter.Warnf("ise", diag.Pos{},
			"extraction budget exhausted at destination %s (%v); template base is partial", dest, err)
		return true
	}
	x.res.Stats.Dropped++
	x.cDropped.Inc()
	sp.SetAttr("outcome", "dropped")
	x.opts.Reporter.Warnf("ise", diag.Pos{},
		"dropping destination %s: %v; retargeting continues without it", dest, err)
	return false
}

// unsatEncoding records one template pruned because its execution
// condition conflicts with the instruction encoding; unsatBus one pruned
// because tristate-bus exclusivity cannot hold.
func (x *extractor) unsatEncoding() {
	x.res.Stats.Unsatisfiable++
	x.res.Stats.UnsatEncoding++
	x.cDiscEnc.Inc()
}

func (x *extractor) unsatBus() {
	x.res.Stats.Unsatisfiable++
	x.res.Stats.UnsatBus++
	x.cDiscBus.Inc()
}

// extractWrite enumerates templates for one guarded storage write.
func (x *extractor) extractWrite(s *netlist.Storage, inst *netlist.Inst, st *hdl.Stmt) error {
	// Guard condition.
	gCond, gDyn := x.m.True(), []*rtl.Expr(nil)
	if st.Guard != nil {
		c, d, err := x.condition(inst, st.Guard)
		if err != nil {
			return err
		}
		gCond, gDyn = c, d
	}
	if gCond == x.m.False() {
		x.unsatEncoding()
		return nil
	}

	// Destination address routes (for array storages).
	addrAlts := []alt{{expr: nil, cond: x.m.True()}}
	if st.LHS.Index != nil {
		var err error
		addrAlts, err = x.resolveModExpr(inst, st.LHS.Index)
		if err != nil {
			return err
		}
	}

	// Data routes.
	dataAlts, err := x.resolveModExpr(inst, st.RHS)
	if err != nil {
		return err
	}

	for _, aa := range addrAlts {
		for _, da := range dataAlts {
			cond := x.m.And(gCond, aa.cond, da.cond)
			x.res.Stats.RoutesEnumerated++
			x.cRoutes.Inc()
			if cond == x.m.False() {
				x.unsatEncoding()
				continue
			}
			dyn := x.concatDyn(gDyn, aa.dyn, da.dyn)
			x.emit(&rtl.Template{
				Dest:     s.QName(),
				DestAddr: aa.expr,
				Src:      da.expr,
				Width:    s.Width(),
				Cond:     rtl.ExecCond{Static: cond, Dynamic: dyn},
			})
		}
	}
	return nil
}

func (x *extractor) emit(t *rtl.Template) {
	if x.res.Base.Len()+len(x.pending) >= x.opts.MaxTemplates {
		return
	}
	x.pending = append(x.pending, t)
}

// concatDyn concatenates dynamic guard lists, dropping structurally equal
// repeats; guards are interned in the base's store, so a repeat is a
// repeated handle.
func (x *extractor) concatDyn(ds ...[]*rtl.Expr) []*rtl.Expr {
	var out []*rtl.Expr
	var buf [4]rtl.ExprID
	seen := buf[:0]
	store := x.res.Base.Exprs()
	for _, d := range ds {
		for _, g := range d {
			id := store.Intern(g)
			if !slices.Contains(seen, id) {
				seen = append(seen, id)
				out = append(out, g)
			}
		}
	}
	return out
}

// ----- symbolic control evaluation ------------------------------------

// symOut symbolically evaluates instance output port out over instruction
// and mode bits.  ok is false when the value depends on run-time data.
func (x *extractor) symOut(inst *netlist.Inst, out string) (bitvec.Vec, bool) {
	key := inst.Name + "." + out
	if r, hit := x.symMemo[key]; hit {
		return r.vec, r.ok
	}
	// Avoid infinite recursion on (already rejected) cycles.
	x.symMemo[key] = symResult{nil, false}
	vec, ok := x.symOutUncached(inst, out)
	x.symMemo[key] = symResult{vec, ok}
	return vec, ok
}

func (x *extractor) symOutUncached(inst *netlist.Inst, out string) (bitvec.Vec, bool) {
	// The instruction word itself.
	if inst == x.n.InsnInst && out == x.n.InsnPort {
		vec := make(bitvec.Vec, x.n.InsnWidth)
		for i, v := range x.vars.InsnVars {
			vec[i] = x.m.Var(v)
		}
		return vec, true
	}
	st := inst.OutStmt(out)
	if st == nil {
		return nil, false
	}
	return x.symModExpr(inst, st.RHS)
}

// symModExpr evaluates an expression symbolically, in the module scope of
// inst or, with inst nil, in connect scope (a bus WHEN condition).
func (x *extractor) symModExpr(inst *netlist.Inst, e hdl.Expr) (bitvec.Vec, bool) {
	switch ex := e.(type) {
	case *hdl.NumExpr:
		return bitvec.Const(x.m, ex.Val, ex.Width), true
	case *hdl.PortSelExpr:
		return x.symOut(x.n.InstByName[ex.Part], ex.Port)
	case *hdl.IdentExpr:
		switch {
		case ex.Port != nil:
			return x.symPort(inst, ex.Name)
		case ex.Bus != nil:
			return x.symBus(x.n.Buses[ex.Name])
		case ex.Var != nil:
			// Storage read: only mode registers are static control.
			s := x.n.Storages[inst.Name+"."+ex.Var.Name]
			if s != nil && s.Mode && s.Size() == 1 {
				bits := x.vars.ModeVars[s.QName()]
				vec := make(bitvec.Vec, len(bits))
				for i, v := range bits {
					vec[i] = x.m.Var(v)
				}
				return vec, true
			}
			return nil, false
		case ex.Const != nil:
			return bitvec.Const(x.m, ex.Const.Value, ex.Width), true
		}
		return nil, false // primary input: run-time data
	case *hdl.IndexExpr:
		if ex.IsSlice {
			base, ok := x.symModExpr(inst, ex.X)
			if !ok {
				return nil, false
			}
			return bitvec.Slice(base, ex.SliceHi, ex.SliceLo), true
		}
		return nil, false // data memory read: dynamic
	case *hdl.BinExpr:
		a, okA := x.symModExpr(inst, ex.X)
		if !okA {
			return nil, false
		}
		b, okB := x.symModExpr(inst, ex.Y)
		if !okB {
			return nil, false
		}
		return x.symBin(ex.Op, a, b)
	case *hdl.UnExpr:
		a, ok := x.symModExpr(inst, ex.X)
		if !ok {
			return nil, false
		}
		switch ex.Op {
		case rtl.OpNeg:
			return bitvec.Neg(x.m, a), true
		case rtl.OpNot:
			return bitvec.Not(x.m, a), true
		}
		return nil, false
	case *hdl.CaseExpr:
		sel, ok := x.symModExpr(inst, ex.Sel)
		if !ok {
			return nil, false
		}
		var out bitvec.Vec
		if ex.Else != nil {
			out, ok = x.symModExpr(inst, ex.Else)
			if !ok {
				return nil, false
			}
		} else {
			out = bitvec.Const(x.m, 0, ex.Width)
		}
		for _, a := range ex.Alts {
			body, okB := x.symModExpr(inst, a.Body)
			if !okB {
				return nil, false
			}
			out = bitvec.Mux(x.m, bitvec.EqConst(x.m, sel, a.Val), body, out)
		}
		return out, true
	}
	return nil, false
}

func (x *extractor) symBin(op rtl.Op, a, b bitvec.Vec) (bitvec.Vec, bool) {
	m := x.m
	switch op {
	case rtl.OpAdd:
		return bitvec.Add(m, a, b), true
	case rtl.OpSub:
		return bitvec.Sub(m, a, b), true
	case rtl.OpMul:
		return bitvec.Mul(m, a, b), true
	case rtl.OpAnd:
		return bitvec.And(m, a, b), true
	case rtl.OpOr:
		return bitvec.Or(m, a, b), true
	case rtl.OpXor:
		return bitvec.Xor(m, a, b), true
	case rtl.OpEq:
		return bitvec.Bool(bitvec.Eq(m, a, b)), true
	case rtl.OpNe:
		return bitvec.Bool(m.Not(bitvec.Eq(m, a, b))), true
	case rtl.OpLt:
		return bitvec.Bool(bitvec.Ult(m, a, b)), true
	case rtl.OpGe:
		return bitvec.Bool(m.Not(bitvec.Ult(m, a, b))), true
	case rtl.OpGt:
		return bitvec.Bool(bitvec.Ult(m, b, a)), true
	case rtl.OpLe:
		return bitvec.Bool(m.Not(bitvec.Ult(m, b, a))), true
	case rtl.OpShl, rtl.OpShr, rtl.OpAshr:
		if k, ok := bitvec.IsConst(m, b); ok {
			switch op {
			case rtl.OpShl:
				return bitvec.ShlConst(m, a, int(k)), true
			case rtl.OpShr:
				return bitvec.ShrConst(m, a, int(k)), true
			default:
				return bitvec.AshrConst(m, a, int(k)), true
			}
		}
	}
	return nil, false
}

// symPort symbolically evaluates an instance input port through its driver.
func (x *extractor) symPort(inst *netlist.Inst, port string) (bitvec.Vec, bool) {
	d := inst.Drivers[port]
	if d == nil {
		return nil, false
	}
	return x.symDriver(d)
}

func (x *extractor) symDriver(d *netlist.Driver) (bitvec.Vec, bool) {
	switch d.Kind {
	case netlist.DriveConst:
		return bitvec.Const(x.m, d.Const, d.Width), true
	case netlist.DrivePort:
		full, ok := x.symOut(d.Inst, d.Port)
		if !ok {
			return nil, false
		}
		return bitvec.Slice(full, d.Hi, d.Lo), true
	case netlist.DriveBus:
		full, ok := x.symBus(d.Bus)
		if !ok {
			return nil, false
		}
		return bitvec.Slice(full, d.Hi, d.Lo), true
	case netlist.DrivePrimary:
		return nil, false // run-time data
	}
	return nil, false
}

// symBus evaluates a bus symbolically.  A bus is static control only when
// it has a single unconditional driver.
func (x *extractor) symBus(b *netlist.Bus) (bitvec.Vec, bool) {
	if len(b.Drivers) == 1 && b.Drivers[0].When == nil {
		return x.symDriver(b.Drivers[0].Src)
	}
	return nil, false
}

// condition converts a Boolean expression (module scope of inst, or connect
// scope when inst is nil) into a static BDD condition, or a residual
// dynamic guard when it depends on run-time data.
func (x *extractor) condition(inst *netlist.Inst, e hdl.Expr) (bdd.Node, []*rtl.Expr, error) {
	if vec, ok := x.symModExpr(inst, e); ok {
		return bitvec.Truth(x.m, vec), nil, nil
	}
	g, err := x.guardExpr(inst, e)
	if err != nil {
		return x.m.False(), nil, err
	}
	return x.m.True(), []*rtl.Expr{g}, nil
}

// guardExpr lowers a dynamic condition to an RT expression (no forking:
// guards must be mux-free routes).
func (x *extractor) guardExpr(inst *netlist.Inst, e hdl.Expr) (*rtl.Expr, error) {
	alts, err := x.resolveModExpr(inst, e)
	if err != nil {
		return nil, err
	}
	if len(alts) != 1 || alts[0].cond != x.m.True() || len(alts[0].dyn) != 0 {
		return nil, fmt.Errorf("ise: dynamic guard %s in %s is steered by control logic; unsupported", e, scopeName(inst))
	}
	return alts[0].expr, nil
}

// scopeName names an expression's scope in messages: the instance, or a
// bus WHEN condition in connect scope.
func scopeName(inst *netlist.Inst) string {
	if inst == nil {
		return "a WHEN condition"
	}
	return inst.Name
}

// ----- route enumeration ----------------------------------------------

// resolveModExpr enumerates route alternatives for an expression in the
// module scope of inst or, with inst nil, in connect scope.
func (x *extractor) resolveModExpr(inst *netlist.Inst, e hdl.Expr) ([]alt, error) {
	switch ex := e.(type) {
	case *hdl.NumExpr:
		return []alt{{expr: rtl.NewConst(ex.Val, ex.Width), cond: x.m.True()}}, nil

	case *hdl.PortSelExpr:
		return x.resolveOut(x.n.InstByName[ex.Part], ex.Port)

	case *hdl.IdentExpr:
		switch {
		case ex.Port != nil:
			return x.resolvePort(inst, ex.Name)
		case ex.Bus != nil:
			return x.resolveBus(x.n.Buses[ex.Name])
		case ex.Primary != nil:
			return []alt{{expr: rtl.NewPort(ex.Name, ex.Width), cond: x.m.True()}}, nil
		case ex.Var != nil:
			q := inst.Name + "." + ex.Var.Name
			return []alt{{expr: rtl.NewRead(q, ex.Var.Width, nil), cond: x.m.True()}}, nil
		case ex.Const != nil:
			return []alt{{expr: rtl.NewConst(ex.Const.Value, ex.Width), cond: x.m.True()}}, nil
		}
		return nil, fmt.Errorf("ise: unresolved identifier %s", ex.Name)

	case *hdl.IndexExpr:
		if ex.IsSlice {
			alts, err := x.resolveModExpr(inst, ex.X)
			if err != nil {
				return nil, err
			}
			out := make([]alt, 0, len(alts))
			for _, a := range alts {
				out = append(out, alt{
					expr: rtl.NewSlice(ex.SliceHi, ex.SliceLo, a.expr),
					cond: a.cond, dyn: a.dyn,
				})
			}
			return out, nil
		}
		// Array storage read: enumerate address routes.
		id := ex.X.(*hdl.IdentExpr)
		q := inst.Name + "." + id.Var.Name
		addrAlts, err := x.resolveModExpr(inst, ex.Hi)
		if err != nil {
			return nil, err
		}
		out := make([]alt, 0, len(addrAlts))
		for _, a := range addrAlts {
			out = append(out, alt{
				expr: rtl.NewRead(q, id.Var.Width, a.expr),
				cond: a.cond, dyn: a.dyn,
			})
		}
		return out, nil

	case *hdl.BinExpr:
		as, err := x.resolveModExpr(inst, ex.X)
		if err != nil {
			return nil, err
		}
		bs, err := x.resolveModExpr(inst, ex.Y)
		if err != nil {
			return nil, err
		}
		var out []alt
		for _, a := range as {
			if err := x.opts.Budget.Exceeded(); err != nil {
				return nil, err
			}
			for _, b := range bs {
				cond := x.m.And(a.cond, b.cond)
				if cond == x.m.False() {
					continue
				}
				out = append(out, alt{
					expr: rtl.NewOp(ex.Op, ex.Width, a.expr, b.expr),
					cond: cond,
					dyn:  x.concatDyn(a.dyn, b.dyn),
				})
				if len(out) > x.opts.MaxAlts {
					return nil, fmt.Errorf("ise: route explosion in %s (limit %d)", scopeName(inst), x.opts.MaxAlts)
				}
			}
		}
		return out, nil

	case *hdl.UnExpr:
		as, err := x.resolveModExpr(inst, ex.X)
		if err != nil {
			return nil, err
		}
		out := make([]alt, 0, len(as))
		for _, a := range as {
			out = append(out, alt{
				expr: rtl.NewOp(ex.Op, ex.Width, a.expr),
				cond: a.cond, dyn: a.dyn,
			})
		}
		return out, nil

	case *hdl.CaseExpr:
		return x.resolveCase(inst, ex)
	}
	return nil, fmt.Errorf("ise: cannot enumerate routes for %s", e)
}

// resolveCase forks traversal across CASE alternatives, constraining each
// branch by the selector condition.
func (x *extractor) resolveCase(inst *netlist.Inst, ce *hdl.CaseExpr) ([]alt, error) {
	selVec, selStatic := x.symModExpr(inst, ce.Sel)
	var selDynBase *rtl.Expr
	if !selStatic {
		g, err := x.guardExpr(inst, ce.Sel)
		if err != nil {
			return nil, err
		}
		selDynBase = g
	}

	branchCond := func(val int64) (bdd.Node, []*rtl.Expr) {
		if selStatic {
			return bitvec.EqConst(x.m, selVec, val), nil
		}
		selW := ce.Sel.ExprWidth()
		g := rtl.NewOp(rtl.OpEq, 1, selDynBase, rtl.NewConst(val, selW))
		return x.m.True(), []*rtl.Expr{g}
	}

	var out []alt
	addBranch := func(cond bdd.Node, dyn []*rtl.Expr, body hdl.Expr) error {
		if err := x.opts.Budget.Exceeded(); err != nil {
			return err
		}
		if cond == x.m.False() {
			x.unsatEncoding()
			return nil
		}
		alts, err := x.resolveModExpr(inst, body)
		if err != nil {
			return err
		}
		for _, a := range alts {
			c := x.m.And(cond, a.cond)
			if c == x.m.False() {
				x.unsatEncoding()
				continue
			}
			out = append(out, alt{expr: a.expr, cond: c, dyn: x.concatDyn(dyn, a.dyn)})
			if len(out) > x.opts.MaxAlts {
				return fmt.Errorf("ise: route explosion in CASE of %s (limit %d)", scopeName(inst), x.opts.MaxAlts)
			}
		}
		return nil
	}

	for _, a := range ce.Alts {
		c, dyn := branchCond(a.Val)
		if err := addBranch(c, dyn, a.Body); err != nil {
			return nil, err
		}
	}
	if ce.Else != nil {
		if selStatic {
			// ELSE condition: none of the listed values match.
			c := x.m.True()
			for _, a := range ce.Alts {
				c = x.m.And(c, x.m.Not(bitvec.EqConst(x.m, selVec, a.Val)))
			}
			if err := addBranch(c, nil, ce.Else); err != nil {
				return nil, err
			}
		} else {
			selW := ce.Sel.ExprWidth()
			var dyn []*rtl.Expr
			for _, a := range ce.Alts {
				dyn = append(dyn, rtl.NewOp(rtl.OpNe, 1, selDynBase, rtl.NewConst(a.Val, selW)))
			}
			if err := addBranch(x.m.True(), dyn, ce.Else); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// resolvePort enumerates routes arriving at an instance input port.
func (x *extractor) resolvePort(inst *netlist.Inst, port string) ([]alt, error) {
	d := inst.Drivers[port]
	if d == nil {
		return nil, fmt.Errorf("ise: input port %s.%s undriven", inst.Name, port)
	}
	return x.resolveDriver(d)
}

// resolveDriver enumerates routes through a driver, applying its bit slice.
func (x *extractor) resolveDriver(d *netlist.Driver) ([]alt, error) {
	switch d.Kind {
	case netlist.DriveConst:
		return []alt{{expr: rtl.NewConst(d.Const, d.Width), cond: x.m.True()}}, nil

	case netlist.DrivePrimary:
		w := x.n.PrimaryIn[d.Primary].Width
		e := rtl.NewSlice(d.Hi, d.Lo, rtl.NewPort(d.Primary, w))
		return []alt{{expr: e, cond: x.m.True()}}, nil

	case netlist.DrivePort:
		alts, err := x.resolveOut(d.Inst, d.Port)
		if err != nil {
			return nil, err
		}
		out := make([]alt, 0, len(alts))
		for _, a := range alts {
			out = append(out, alt{
				expr: rtl.NewSlice(d.Hi, d.Lo, a.expr),
				cond: a.cond, dyn: a.dyn,
			})
		}
		return out, nil

	case netlist.DriveBus:
		alts, err := x.resolveBus(d.Bus)
		if err != nil {
			return nil, err
		}
		out := make([]alt, 0, len(alts))
		for _, a := range alts {
			out = append(out, alt{
				expr: rtl.NewSlice(d.Hi, d.Lo, a.expr),
				cond: a.cond, dyn: a.dyn,
			})
		}
		return out, nil
	}
	return nil, fmt.Errorf("ise: bad driver kind %d", d.Kind)
}

// resolveBus forks across tristate drivers.  Selecting driver i requires
// its enable condition true and every other enable false (otherwise the
// routes would contend on the bus): a static enable in the condition, a
// dynamic one by a guard that it is off.
func (x *extractor) resolveBus(b *netlist.Bus) ([]alt, error) {
	// Precompute enable conditions: WHEN conditions are analysed like
	// module guards, in connect scope.  An enable is either static (a
	// condition over control bits) or one dynamic guard.
	type enable struct {
		cond  bdd.Node
		guard *rtl.Expr
	}
	enables := make([]enable, len(b.Drivers))
	for i, bd := range b.Drivers {
		enables[i].cond = x.m.True()
		if bd.When == nil {
			continue
		}
		c, d, err := x.condition(nil, bd.When)
		if err != nil {
			return nil, err
		}
		enables[i].cond = c
		if len(d) > 0 {
			enables[i].guard = d[0]
		}
	}
	var out []alt
	for i, bd := range b.Drivers {
		if err := x.opts.Budget.Exceeded(); err != nil {
			return nil, err
		}
		cond := enables[i].cond
		var dyn []*rtl.Expr
		if g := enables[i].guard; g != nil {
			dyn = append(dyn, g)
		}
		// Exclusivity against the other drivers' enables: a static one
		// must be off in the word, a dynamic one at run time.
		for j, en := range enables {
			switch {
			case j == i:
			case en.guard == nil:
				cond = x.m.And(cond, x.m.Not(en.cond))
			default:
				dyn = x.concatDyn(dyn, []*rtl.Expr{negateGuard(en.guard)})
			}
		}
		if cond == x.m.False() {
			x.unsatBus()
			continue
		}
		srcAlts, err := x.resolveDriver(bd.Src)
		if err != nil {
			return nil, err
		}
		for _, a := range srcAlts {
			c := x.m.And(cond, a.cond)
			if c == x.m.False() {
				x.unsatBus()
				continue
			}
			out = append(out, alt{expr: a.expr, cond: c, dyn: x.concatDyn(dyn, a.dyn)})
			if len(out) > x.opts.MaxAlts {
				return nil, fmt.Errorf("ise: route explosion on bus %s (limit %d)", b.Name, x.opts.MaxAlts)
			}
		}
	}
	return out, nil
}

// negatedComparison maps each comparison to the one holding exactly when
// it does not.
var negatedComparison = map[rtl.Op]rtl.Op{
	rtl.OpEq: rtl.OpNe, rtl.OpNe: rtl.OpEq,
	rtl.OpLt: rtl.OpGe, rtl.OpGe: rtl.OpLt,
	rtl.OpLe: rtl.OpGt, rtl.OpGt: rtl.OpLe,
}

// negateGuard returns the dynamic guard holding exactly when g does not: a
// comparison with its operator negated, anything else compared with 0.
func negateGuard(g *rtl.Expr) *rtl.Expr {
	if op, ok := negatedComparison[g.Op]; ok && g.Kind == rtl.OpApp {
		return rtl.NewOp(op, g.Width, g.Kids...)
	}
	return rtl.NewOp(rtl.OpEq, 1, g, rtl.NewConst(0, g.Width))
}

// resolveOut enumerates routes producing an instance output port; results
// are memoized (patterns and conditions are immutable).
func (x *extractor) resolveOut(inst *netlist.Inst, out string) ([]alt, error) {
	key := inst.Name + "." + out
	if alts, ok := x.outMemo[key]; ok {
		return alts, nil
	}
	// The instruction word read is an immediate field.
	if inst == x.n.InsnInst && out == x.n.InsnPort {
		alts := []alt{{expr: rtl.NewInsnField(x.n.InsnWidth-1, 0), cond: x.m.True()}}
		x.outMemo[key] = alts
		return alts, nil
	}
	st := inst.OutStmt(out)
	if st == nil {
		return nil, fmt.Errorf("ise: output %s has no behavior", key)
	}
	alts, err := x.resolveModExpr(inst, st.RHS)
	if err != nil {
		return nil, err
	}
	x.outMemo[key] = alts
	return alts, nil
}
