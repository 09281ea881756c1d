package hdl

import (
	"strings"

	"repro/internal/faultpoint"
	"repro/internal/rtl"
)

// maxParseErrors caps collection per parse; pathological inputs (fuzzers,
// generated models) stop producing diagnostics after this many.
const maxParseErrors = 100

// Parse parses MDL source text into an unchecked Model.  Call Check on the
// result before elaboration.
//
// The parser recovers from syntax errors by synchronizing to the next ';'
// or section keyword, so one pass reports every syntax error in the model;
// the returned error is an ErrorList and the Model is the (possibly
// partial) tree of everything that did parse.
func Parse(src string) (*Model, error) {
	if err := faultpoint.Hit("hdl.parse", ""); err != nil {
		return nil, ErrorList{errf(Pos{1, 1}, "%v", err)}
	}
	p := &parser{lx: newLexer(src)}
	p.advance()
	m := p.parseModel()
	if len(p.errs) > 0 {
		return m, p.errs
	}
	return m, nil
}

// ParseAndCheck parses and semantically checks a model in one step.
func ParseAndCheck(src string) (*Model, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(m); err != nil {
		return nil, err
	}
	return m, nil
}

type parser struct {
	lx   *lexer
	tok  Token
	errs ErrorList
}

func (p *parser) record(err error) {
	if p.bailed() {
		return
	}
	if e, ok := err.(*Error); ok {
		p.errs = append(p.errs, e)
	} else {
		p.errs = append(p.errs, errf(p.tok.Pos, "%v", err))
	}
}

func (p *parser) bailed() bool { return len(p.errs) >= maxParseErrors }

// advance moves to the next token, recording (and skipping past) lexical
// errors; the lexer consumes the offending byte, so this always progresses.
func (p *parser) advance() {
	for {
		t, err := p.lx.next()
		if err != nil {
			p.record(err)
			if p.bailed() {
				p.tok = Token{Kind: TokEOF, Pos: p.lx.pos()}
				return
			}
			continue
		}
		p.tok = t
		return
	}
}

func (p *parser) expect(k TokKind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	p.advance()
	return t, nil
}

func (p *parser) accept(k TokKind) bool {
	if p.tok.Kind != k {
		return false
	}
	p.advance()
	return true
}

// syncDecl skips to a declaration boundary: just past the next ';', or at a
// section keyword, END or EOF.  Callers guarantee progress by consuming at
// least the declaration's leading keyword before failing.
func (p *parser) syncDecl() {
	for {
		switch p.tok.Kind {
		case TokSemi:
			p.advance()
			return
		case TokEOF, TokConst, TokModule, TokPort, TokBus, TokParts, TokConnect, TokEnd:
			return
		}
		p.advance()
	}
}

// syncStmt skips to a statement boundary inside a behavior section: just
// past the next ';', or at END or EOF.
func (p *parser) syncStmt() {
	for {
		switch p.tok.Kind {
		case TokSemi:
			p.advance()
			return
		case TokEnd, TokEOF:
			return
		}
		p.advance()
	}
}

func (p *parser) parseModel() *Model {
	m := &Model{}
	if _, err := p.expect(TokProcessor); err != nil {
		p.record(err)
	} else if name, err := p.expect(TokIdent); err != nil {
		p.record(err)
		p.syncDecl()
	} else {
		m.Name = name.Text
		if _, err := p.expect(TokSemi); err != nil {
			p.record(err)
			p.syncDecl()
		}
	}
	for p.tok.Kind != TokEOF && !p.bailed() {
		switch p.tok.Kind {
		case TokConst:
			d, err := p.parseConst()
			if err != nil {
				p.record(err)
				p.syncDecl()
				continue
			}
			m.Consts = append(m.Consts, d)
		case TokModule:
			mod, err := p.parseModule()
			if err != nil {
				p.record(err)
				p.syncDecl()
				continue
			}
			m.Modules = append(m.Modules, mod)
		case TokPort:
			pp, err := p.parsePrimaryPort()
			if err != nil {
				p.record(err)
				p.syncDecl()
				continue
			}
			m.Ports = append(m.Ports, pp)
		case TokBus:
			b, err := p.parseBus()
			if err != nil {
				p.record(err)
				p.syncDecl()
				continue
			}
			m.Buses = append(m.Buses, b)
		case TokParts:
			if err := p.parseParts(m); err != nil {
				p.record(err)
				p.syncDecl()
			}
		case TokConnect:
			if err := p.parseConnects(m); err != nil {
				p.record(err)
				p.syncDecl()
			}
		case TokEnd:
			// Optional trailing "END." or "END;".
			p.advance()
			if p.tok.Kind == TokDot || p.tok.Kind == TokSemi {
				p.advance()
			}
			if p.tok.Kind != TokEOF {
				p.record(errf(p.tok.Pos, "text after final END"))
			}
			return m
		default:
			p.record(errf(p.tok.Pos, "expected declaration, found %s", p.tok))
			p.syncDecl()
		}
	}
	return m
}

func (p *parser) parseConst() (*ConstDecl, error) {
	pos := p.tok.Pos
	p.advance() // CONST
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEqual); err != nil {
		return nil, err
	}
	num, err := p.expect(TokNumber)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &ConstDecl{Name: name.Text, Value: num.Val, Pos: pos}, nil
}

// widthExpr parses a width specifier: a number or a constant name.
func (p *parser) widthExpr() (Expr, error) {
	switch p.tok.Kind {
	case TokNumber:
		e := &NumExpr{Val: p.tok.Val, Pos: p.tok.Pos}
		p.advance()
		return e, nil
	case TokIdent:
		e := &IdentExpr{Name: p.tok.Text, Pos: p.tok.Pos}
		p.advance()
		return e, nil
	}
	return nil, errf(p.tok.Pos, "expected width (number or constant), found %s", p.tok)
}

func (p *parser) parseModule() (*Module, error) {
	pos := p.tok.Pos
	p.advance() // MODULE
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	mod := &Module{Name: name.Text, Pos: pos}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for p.tok.Kind != TokRParen {
		var dir Dir
		switch p.tok.Kind {
		case TokIn:
			dir = DirIn
		case TokOut:
			dir = DirOut
		default:
			return nil, errf(p.tok.Pos, "expected IN or OUT, found %s", p.tok)
		}
		p.advance()
		pn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		w, err := p.widthExpr()
		if err != nil {
			return nil, err
		}
		mod.Ports = append(mod.Ports, &ModPort{Name: pn.Text, Dir: dir, WidthRaw: w, Pos: pn.Pos})
		if !p.accept(TokSemi) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	// Optional VAR section.
	for p.tok.Kind == TokVar {
		p.advance()
		for p.tok.Kind == TokIdent {
			vn := p.tok
			p.advance()
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			w, err := p.widthExpr()
			if err != nil {
				return nil, err
			}
			v := &VarDecl{Name: vn.Text, WidthRaw: w, Pos: vn.Pos}
			if p.accept(TokLBrack) {
				sz, err := p.widthExpr()
				if err != nil {
					return nil, err
				}
				v.SizeRaw = sz
				if _, err := p.expect(TokRBrack); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			mod.Vars = append(mod.Vars, v)
		}
	}
	// Optional behavior.  Statement errors recover to the next ';' so one
	// pass reports every bad statement in the module body.
	if p.accept(TokBegin) {
		for p.tok.Kind != TokEnd && p.tok.Kind != TokEOF && !p.bailed() {
			st, err := p.parseStmt()
			if err != nil {
				p.record(err)
				p.syncStmt()
				continue
			}
			mod.Stmts = append(mod.Stmts, st)
		}
		if _, err := p.expect(TokEnd); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return mod, nil
}

func (p *parser) parseStmt() (*Stmt, error) {
	pos := p.tok.Pos
	st := &Stmt{Pos: pos}
	if p.accept(TokAt) {
		g, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Guard = g
		if _, err := p.expect(TokDo); err != nil {
			return nil, err
		}
	}
	lv, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	st.LHS = lv
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	st.RHS = rhs
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseLValue() (*LValue, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	lv := &LValue{Name: name.Text, Pos: name.Pos}
	if p.accept(TokLBrack) {
		ix, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lv.Index = ix
		if _, err := p.expect(TokRBrack); err != nil {
			return nil, err
		}
	}
	return lv, nil
}

func (p *parser) parsePrimaryPort() (*PrimaryPort, error) {
	pos := p.tok.Pos
	p.advance() // PORT
	var dir Dir
	switch p.tok.Kind {
	case TokIn:
		dir = DirIn
	case TokOut:
		dir = DirOut
	default:
		return nil, errf(p.tok.Pos, "expected IN or OUT after PORT, found %s", p.tok)
	}
	p.advance()
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	w, err := p.widthExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &PrimaryPort{Name: name.Text, Dir: dir, WidthRaw: w, Pos: pos}, nil
}

func (p *parser) parseBus() (*BusDecl, error) {
	pos := p.tok.Pos
	p.advance() // BUS
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	w, err := p.widthExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &BusDecl{Name: name.Text, WidthRaw: w, Pos: pos}, nil
}

func (p *parser) parseParts(m *Model) error {
	p.advance() // PARTS
	for p.tok.Kind == TokIdent {
		name := p.tok
		p.advance()
		if _, err := p.expect(TokColon); err != nil {
			return err
		}
		modName, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		part := &Part{Name: name.Text, ModName: modName.Text, Pos: name.Pos}
		if p.tok.Kind == TokIdent {
			switch strings.ToUpper(p.tok.Text) {
			case "INSTRUCTION":
				part.Flag = FlagInstruction
			case "MODE":
				part.Flag = FlagMode
			case "PC":
				part.Flag = FlagPC
			default:
				return errf(p.tok.Pos, "unknown part flag %q (want INSTRUCTION, MODE or PC)", p.tok.Text)
			}
			p.advance()
		}
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
		m.Parts = append(m.Parts, part)
	}
	return nil
}

func (p *parser) parseConnects(m *Model) error {
	p.advance() // CONNECT
	for p.tok.Kind == TokIdent {
		pos := p.tok.Pos
		first := p.tok
		p.advance()
		c := &Connect{Pos: pos}
		if p.accept(TokDot) {
			port, err := p.expect(TokIdent)
			if err != nil {
				return err
			}
			c.SinkPart = first.Text
			c.SinkPort = port.Text
		} else {
			c.SinkPort = first.Text // bus or primary output
		}
		if _, err := p.expect(TokAssign); err != nil {
			return err
		}
		src, err := p.parseExpr()
		if err != nil {
			return err
		}
		c.Src = src
		if p.accept(TokWhen) {
			w, err := p.parseExpr()
			if err != nil {
				return err
			}
			c.When = w
		}
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
		m.Connects = append(m.Connects, c)
	}
	return nil
}

// binLevels holds the binary operators by C-like precedence, lowest first:
//
//	|  ^  &  ==/!=  </<=/>/>=  <</>>/>>>  +/-  * / %
//
// Unary and primary expressions bind tighter than the last level.
var binLevels = []map[TokKind]rtl.Op{
	{TokPipe: rtl.OpOr},
	{TokCaret: rtl.OpXor},
	{TokAmp: rtl.OpAnd},
	{TokEq: rtl.OpEq, TokNe: rtl.OpNe},
	{TokLt: rtl.OpLt, TokLe: rtl.OpLe, TokGt: rtl.OpGt, TokGe: rtl.OpGe},
	{TokShl: rtl.OpShl, TokShr: rtl.OpShr, TokAshr: rtl.OpAshr},
	{TokPlus: rtl.OpAdd, TokMinus: rtl.OpSub},
	{TokStar: rtl.OpMul, TokSlash: rtl.OpDiv, TokPercent: rtl.OpMod},
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

// parseBinary parses a left-associative chain of binLevels[level]
// operators over operands of the next tighter level.
func (p *parser) parseBinary(level int) (Expr, error) {
	if level == len(binLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := binLevels[level][p.tok.Kind]
		if !ok {
			return x, nil
		}
		pos := p.tok.Pos
		p.advance()
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Op: op, X: x, Y: y, Pos: pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokMinus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: rtl.OpNeg, X: x, Pos: pos}, nil
	case TokTilde:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: rtl.OpNot, X: x, Pos: pos}, nil
	case TokBang:
		// !x is sugar for x == 0.
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: rtl.OpEq, X: x, Y: &NumExpr{Val: 0, Pos: pos}, Pos: pos}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokLBrack {
		pos := p.tok.Pos
		p.advance()
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ix := &IndexExpr{X: x, Hi: hi, Pos: pos}
		if p.accept(TokColon) {
			lo, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ix.Lo = lo
		}
		if _, err := p.expect(TokRBrack); err != nil {
			return nil, err
		}
		x = ix
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokNumber:
		v := p.tok.Val
		p.advance()
		return &NumExpr{Val: v, Pos: pos}, nil
	case TokIdent:
		name := p.tok.Text
		p.advance()
		if p.accept(TokDot) {
			port, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			return &PortSelExpr{Part: name, Port: port.Text, Pos: pos}, nil
		}
		return &IdentExpr{Name: name, Pos: pos}, nil
	case TokLParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case TokCase:
		return p.parseCase()
	}
	return nil, errf(pos, "expected expression, found %s", p.tok)
}

func (p *parser) parseCase() (Expr, error) {
	pos := p.tok.Pos
	p.advance() // CASE
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOf); err != nil {
		return nil, err
	}
	ce := &CaseExpr{Sel: sel, Pos: pos}
	for p.tok.Kind != TokEnd {
		if p.accept(TokElse) {
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ce.Else = body
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			continue
		}
		neg := p.accept(TokMinus)
		num, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		val := num.Val
		if neg {
			val = -val
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Alts = append(ce.Alts, CaseAlt{Val: val, Body: body})
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
	}
	p.advance() // END
	return ce, nil
}
