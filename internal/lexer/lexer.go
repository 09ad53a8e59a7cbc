// Package lexer implements the hand-written scanner for MC++ source text.
//
// The scanner produces a stream of tokens with positions resolvable against
// the source.File it was created from. It recognizes line and block
// comments, character/string escapes, and all multi-character operators of
// the subset, including the C++-specific `->*`, `.*` and `::`.
package lexer

import (
	"deadmembers/internal/source"
	"deadmembers/internal/token"
)

// Token is a single lexical token: its kind and source span. It holds no
// pointers, so a token slice is one allocation the collector never scans;
// the spelling is sliced from the source on demand (see Text).
type Token struct {
	Pos  source.Pos
	Len  int32 // bytes; a file is at most source.MaxFileSize long
	Kind token.Kind
}

// Text returns the token's spelling, sliced from the content of file, the
// file the token was scanned from.
func (t Token) Text(file *source.File) string {
	off := file.Offset(t.Pos)
	return file.Content()[off : off+int(t.Len)]
}

// scanner scans a single source file.
type scanner struct {
	file  *source.File
	src   string
	off   int
	diags *source.DiagnosticList
}

// ScanAll scans the entire file and returns all tokens, ending with EOF.
// The result is allocated once, up front, with room for one token per two
// source bytes. MC++ code runs at about one token per three bytes (0.25 to
// 0.35 over the paper corpus), so that holds every real program; denser
// input, such as a run of parentheses, grows the slice by appending. Room
// for the worst case, one token per byte, would triple the allocation and
// the memory it holds while the file is parsed.
func ScanAll(file *source.File, diags *source.DiagnosticList) []Token {
	lx := scanner{file: file, src: file.Content(), diags: diags}
	out := make([]Token, 0, len(lx.src)/2+1)
	for {
		t := lx.next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}

func (l *scanner) pos() source.Pos { return l.file.Pos(l.off) }

// tok returns the token of kind k spanning from offset begin to the
// current offset.
func (l *scanner) tok(k token.Kind, begin int) Token {
	return Token{Pos: l.file.Pos(begin), Len: int32(l.off - begin), Kind: k}
}

func (l *scanner) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

func (l *scanner) peekAt(n int) byte {
	if l.off+n < len(l.src) {
		return l.src[l.off+n]
	}
	return 0
}

// skipTrivia consumes whitespace and comments. Unterminated block comments
// are reported once and consume the rest of the file.
func (l *scanner) skipTrivia() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.off++
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.off++
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.off += 2
			closed := false
			for l.off < len(l.src) {
				if l.src[l.off] == '*' && l.peekAt(1) == '/' {
					l.off += 2
					closed = true
					break
				}
				l.off++
			}
			if !closed {
				l.diags.Errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans and returns the next token.
func (l *scanner) next() Token {
	l.skipTrivia()
	begin := l.off
	if l.off >= len(l.src) {
		return l.tok(token.EOF, begin)
	}
	c := l.src[l.off]
	switch {
	case isIdentStart(c):
		return l.scanIdent(begin)
	case isDigit(c):
		return l.scanNumber(begin)
	case c == '\'':
		return l.scanChar(begin)
	case c == '"':
		return l.scanString(begin)
	}
	return l.scanOperator(begin)
}

func (l *scanner) scanIdent(begin int) Token {
	for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
		l.off++
	}
	return l.tok(token.LookupKeyword(l.src[begin:l.off]), begin)
}

func (l *scanner) scanNumber(begin int) Token {
	kind := token.IntLit
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.off += 2
		for l.off < len(l.src) && isHexDigit(l.src[l.off]) {
			l.off++
		}
		if l.off == begin+2 {
			l.diags.Errorf(l.file.Pos(begin), "malformed hexadecimal literal")
		}
		return l.tok(kind, begin)
	}
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.off++
	}
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		kind = token.FloatLit
		l.off++
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.off++
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		next := l.peekAt(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
			kind = token.FloatLit
			l.off += 2
			for l.off < len(l.src) && isDigit(l.src[l.off]) {
				l.off++
			}
		}
	}
	return l.tok(kind, begin)
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanEscape consumes one (possibly escaped) character of a char/string
// literal body and returns false on malformed input.
func (l *scanner) scanEscape(start source.Pos) bool {
	if l.peek() != '\\' {
		l.off++
		return true
	}
	l.off++
	switch l.peek() {
	case 'n', 't', 'r', '0', '\\', '\'', '"':
		l.off++
		return true
	}
	if l.off >= len(l.src) {
		l.diags.Errorf(start, "backslash at end of input")
		return false
	}
	l.diags.Errorf(start, "unknown escape sequence \\%c", l.peek())
	l.off++
	return false
}

func (l *scanner) scanChar(begin int) Token {
	start := l.file.Pos(begin)
	l.off++ // opening quote
	if l.off >= len(l.src) {
		l.diags.Errorf(start, "unterminated character literal")
		return l.tok(token.CharLit, begin)
	}
	l.scanEscape(start)
	if l.peek() == '\'' {
		l.off++
	} else {
		l.diags.Errorf(start, "unterminated character literal")
	}
	return l.tok(token.CharLit, begin)
}

func (l *scanner) scanString(begin int) Token {
	start := l.file.Pos(begin)
	l.off++ // opening quote
	for l.off < len(l.src) && l.src[l.off] != '"' && l.src[l.off] != '\n' {
		l.scanEscape(start)
	}
	if l.peek() == '"' {
		l.off++
	} else {
		l.diags.Errorf(start, "unterminated string literal")
	}
	return l.tok(token.StringLit, begin)
}

// scanOperator scans the longest operator or punctuator at begin. A byte
// that starts none is reported and returned as a one-byte Invalid token.
func (l *scanner) scanOperator(begin int) Token {
	c, next := l.src[l.off], l.peekAt(1)
	kind, n := token.Invalid, 1
	switch c {
	case '+':
		switch next {
		case '+':
			kind, n = token.Inc, 2
		case '=':
			kind, n = token.PlusAssign, 2
		default:
			kind = token.Plus
		}
	case '-':
		switch {
		case next == '>' && l.peekAt(2) == '*':
			kind, n = token.ArrowStar, 3
		case next == '>':
			kind, n = token.Arrow, 2
		case next == '-':
			kind, n = token.Dec, 2
		case next == '=':
			kind, n = token.MinusAssign, 2
		default:
			kind = token.Minus
		}
	case '<':
		switch next {
		case '<':
			kind, n = token.Shl, 2
		case '=':
			kind, n = token.Le, 2
		default:
			kind = token.Lt
		}
	case '>':
		switch next {
		case '>':
			kind, n = token.Shr, 2
		case '=':
			kind, n = token.Ge, 2
		default:
			kind = token.Gt
		}
	case '*':
		kind, n = either(next, '=', token.Star, token.StarAssign)
	case '/':
		kind, n = either(next, '=', token.Slash, token.SlashAssign)
	case '%':
		kind, n = either(next, '=', token.Percent, token.PercentAssign)
	case '&':
		kind, n = either(next, '&', token.Amp, token.AmpAmp)
	case '|':
		kind, n = either(next, '|', token.Pipe, token.PipePipe)
	case '!':
		kind, n = either(next, '=', token.Not, token.Ne)
	case '=':
		kind, n = either(next, '=', token.Assign, token.Eq)
	case '.':
		kind, n = either(next, '*', token.Dot, token.DotStar)
	case ':':
		kind, n = either(next, ':', token.Colon, token.Scope)
	case '^':
		kind = token.Caret
	case '~':
		kind = token.Tilde
	case '?':
		kind = token.Question
	case ';':
		kind = token.Semicolon
	case ',':
		kind = token.Comma
	case '(':
		kind = token.LParen
	case ')':
		kind = token.RParen
	case '{':
		kind = token.LBrace
	case '}':
		kind = token.RBrace
	case '[':
		kind = token.LBracket
	case ']':
		kind = token.RBracket
	default:
		l.diags.Errorf(l.file.Pos(begin), "unexpected character %q", string(c))
	}
	l.off += n
	return l.tok(kind, begin)
}

// either returns the two-byte operator long when next is second, else
// the one-byte operator short.
func either(next, second byte, short, long token.Kind) (token.Kind, int) {
	if next == second {
		return long, 2
	}
	return short, 1
}

// UnquoteChar decodes the body of a character literal token (including the
// surrounding quotes) to its byte value. Malformed input yields 0.
func UnquoteChar(text string) byte {
	if len(text) < 3 || text[0] != '\'' {
		return 0
	}
	body := text[1 : len(text)-1]
	return unescapeOne(body)
}

// UnquoteString decodes the body of a string literal token (including the
// surrounding quotes), resolving escape sequences.
func UnquoteString(text string) string {
	if len(text) < 2 || text[0] != '"' {
		return text
	}
	body := text[1 : len(text)-1]
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' && i+1 < len(body) {
			out = append(out, unescapeOne(body[i:i+2]))
			i++
		} else {
			out = append(out, body[i])
		}
	}
	return string(out)
}

func unescapeOne(s string) byte {
	if len(s) == 0 {
		return 0
	}
	if s[0] != '\\' {
		return s[0]
	}
	if len(s) < 2 {
		return 0
	}
	switch s[1] {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return s[1]
}
