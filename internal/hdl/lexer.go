package hdl

import (
	"fmt"
	"strconv"
)

// Error is a positioned HDL front-end diagnostic.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lexer turns MDL source text into tokens.  Comments run from "--" to end
// of line.  Keywords are case-insensitive (MIMOLA heritage); identifiers
// keep their spelling.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{l.line, l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token or a positioned error.
func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if kw, ok := keyword(text); ok {
			return Token{Kind: kw, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil
	case isDigit(c):
		start := l.off
		base := 10
		if c == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			l.advance()
			l.advance()
			start = l.off
			base = 16
			for l.off < len(l.src) && isHex(l.peekByte()) {
				l.advance()
			}
		} else if c == '0' && (l.peek2() == 'b' || l.peek2() == 'B') {
			l.advance()
			l.advance()
			start = l.off
			base = 2
			for l.off < len(l.src) && (l.peekByte() == '0' || l.peekByte() == '1') {
				l.advance()
			}
		} else {
			for l.off < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		text := l.src[start:l.off]
		if text == "" {
			return Token{}, errf(pos, "malformed number literal")
		}
		v, err := strconv.ParseInt(text, base, 64)
		if err != nil {
			return Token{}, errf(pos, "bad number %q: %v", text, err)
		}
		return Token{Kind: TokNumber, Val: v, Pos: pos}, nil
	}
	l.advance()
	mk := func(k TokKind) (Token, error) { return Token{Kind: k, Pos: pos}, nil }
	switch c {
	case ';':
		return mk(TokSemi)
	case ':':
		return mk(TokColon)
	case ',':
		return mk(TokComma)
	case '.':
		return mk(TokDot)
	case '(':
		return mk(TokLParen)
	case ')':
		return mk(TokRParen)
	case '[':
		return mk(TokLBrack)
	case ']':
		return mk(TokRBrack)
	case '+':
		return mk(TokPlus)
	case '-':
		return mk(TokMinus)
	case '*':
		return mk(TokStar)
	case '/':
		return mk(TokSlash)
	case '%':
		return mk(TokPercent)
	case '&':
		return mk(TokAmp)
	case '|':
		return mk(TokPipe)
	case '^':
		return mk(TokCaret)
	case '~':
		return mk(TokTilde)
	case '=':
		if l.peekByte() == '=' {
			l.advance()
			return mk(TokEq)
		}
		return mk(TokEqual)
	case '!':
		if l.peekByte() == '=' {
			l.advance()
			return mk(TokNe)
		}
		return mk(TokBang)
	case '<':
		switch l.peekByte() {
		case '-':
			l.advance()
			return mk(TokAssign)
		case '=':
			l.advance()
			return mk(TokLe)
		case '<':
			l.advance()
			return mk(TokShl)
		}
		return mk(TokLt)
	case '>':
		switch l.peekByte() {
		case '=':
			l.advance()
			return mk(TokGe)
		case '>':
			l.advance()
			if l.peekByte() == '>' {
				l.advance()
				return mk(TokAshr)
			}
			return mk(TokShr)
		}
		return mk(TokGt)
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// keyword looks an identifier up in the case-insensitive keyword table
// without allocating an upper-cased copy: identifiers are ASCII and no
// keyword is longer than the buffer.
func keyword(text string) (TokKind, bool) {
	var buf [16]byte
	if len(text) > len(buf) {
		return 0, false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
