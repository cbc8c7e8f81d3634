// Package parser provides a small text syntax for the library's three
// languages — database instances, integrity constraints, and queries — used
// by the command-line tools and the examples.
//
// Conventions (Prolog-style): identifiers starting with an upper-case
// letter or underscore are variables; lower-case identifiers, numbers and
// double-quoted strings are constants; the keyword null is the null
// constant. Lines starting with % or # are comments.
//
// A string literal runs to the next unescaped '"' on the same line. A
// backslash starts one of the escapes strconv.Quote writes (\" \\ \n \t
// \xNN \uNNNN ...); every other byte stands for itself, so "C15", "two
// words" and "null" are string constants. FormatValue and the wire
// package's canonical renderings write strings this way, so every string
// constant reparses as itself.
//
// Instances:
//
//	course(21, c15).
//	student(21, "Ann").
//
// Constraints (one per line, terminated by '.'): the antecedent is a
// comma-separated list of atoms, optionally with isnull(V) atoms; the
// consequent is 'false', or a '|'-separated disjunction of atoms and
// comparisons. Variables in the consequent that do not occur in the
// antecedent are existentially quantified.
//
//	course(Id, Code) -> student(Id, Name).         % referential IC
//	emp(Id, Nm, Sal) -> Sal > 100.                 % check constraint
//	r(X, Y), r(X, Z) -> Y = Z.                     % functional dependency
//	r(X, Y), isnull(X) -> false.                   % NOT NULL-constraint
//	p(X), q(X) -> false.                           % denial constraint
//
// Queries (datalog-style; several rules with the same head form a union):
//
//	q(X) :- course(X, Code), not student(X, Code).
//	q(X) :- course(X, c15).
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/constraint"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// ParseError reports a syntax error together with its position in the source
// text. Line and Col are 1-based; Col counts bytes from the start of the
// line. All parse failures returned by Instance, Constraints and Query are
// *ParseError values (retrievable with errors.As), except semantic
// validation errors raised after parsing completes.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// --- lexer -------------------------------------------------------------------

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVar
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokArrow // ->
	tokGets  // :-
	tokPipe  // |
	tokOp    // = != < <= > >=
	tokPlus  // +
	tokMinus // -
)

type token struct {
	kind tokenKind
	text string
	str  string // the decoded value of a tokString
	line int
	col  int // 1-based byte column of the token start
}

type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // byte offset where the current line begins
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (lx *lexer) col(pos int) int { return pos - lx.lineStart + 1 }

func (lx *lexer) errf(format string, args ...interface{}) error {
	return &ParseError{Line: lx.line, Col: lx.col(lx.pos), Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
			lx.lineStart = lx.pos
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '%' || c == '#':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			return lx.scan()
		}
	}
	return token{kind: tokEOF, line: lx.line, col: lx.col(lx.pos)}, nil
}

func (lx *lexer) scan() (token, error) {
	start := lx.pos
	c := lx.src[lx.pos]
	mk := func(kind tokenKind) (token, error) {
		return token{kind: kind, text: lx.src[start:lx.pos], line: lx.line, col: lx.col(start)}, nil
	}
	switch {
	case c == '(':
		lx.pos++
		return mk(tokLParen)
	case c == ')':
		lx.pos++
		return mk(tokRParen)
	case c == ',':
		lx.pos++
		return mk(tokComma)
	case c == '.':
		lx.pos++
		return mk(tokDot)
	case c == '|':
		lx.pos++
		return mk(tokPipe)
	case c == '+':
		lx.pos++
		return mk(tokPlus)
	case c == '-':
		if strings.HasPrefix(lx.src[lx.pos:], "->") {
			lx.pos += 2
			return mk(tokArrow)
		}
		lx.pos++
		return mk(tokMinus)
	case c == ':':
		if strings.HasPrefix(lx.src[lx.pos:], ":-") {
			lx.pos += 2
			return mk(tokGets)
		}
		return token{}, lx.errf("unexpected ':'")
	case c == '=', c == '<', c == '>':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
		}
		return mk(tokOp)
	case c == '!':
		if strings.HasPrefix(lx.src[lx.pos:], "!=") {
			lx.pos += 2
			return mk(tokOp)
		}
		return token{}, lx.errf("unexpected '!'")
	case c == '"':
		return lx.scanString()
	case c >= '0' && c <= '9':
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
		return mk(tokNumber)
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		if text[0] >= 'A' && text[0] <= 'Z' || text[0] == '_' {
			return token{kind: tokVar, text: text, line: lx.line, col: lx.col(start)}, nil
		}
		return mk(tokIdent)
	default:
		return token{}, lx.errf("unexpected character %q", string(c))
	}
}

// scanString scans a double-quoted string literal up to the next unescaped
// '"'. Each backslash escape that strconv.Quote writes is decoded with
// strconv.UnquoteChar; every other byte is taken verbatim, so a literal
// without a backslash means exactly its bytes. A raw newline inside the
// quotes is an error.
func (lx *lexer) scanString() (token, error) {
	start := lx.pos
	lx.pos++
	var buf []byte // the decoded prefix, once an escape has been seen
	from := lx.pos // start of the verbatim run not yet in buf
	for {
		if lx.pos >= len(lx.src) || lx.src[lx.pos] == '\n' {
			return token{}, lx.errf("unterminated string")
		}
		switch lx.src[lx.pos] {
		case '"':
			str := lx.src[from:lx.pos]
			if buf != nil {
				str = string(append(buf, str...))
			}
			lx.pos++
			return token{kind: tokString, text: lx.src[start:lx.pos], str: str, line: lx.line, col: lx.col(start)}, nil
		case '\\':
			buf = append(buf, lx.src[from:lx.pos]...)
			r, multibyte, tail, err := strconv.UnquoteChar(lx.src[lx.pos:], '"')
			if err != nil {
				return token{}, lx.errf("invalid escape in string")
			}
			if multibyte {
				buf = utf8.AppendRune(buf, r)
			} else {
				buf = append(buf, byte(r))
			}
			lx.pos = len(lx.src) - len(tail)
			from = lx.pos
		default:
			lx.pos++
		}
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

// --- parser core ---------------------------------------------------------------

type parser struct {
	lx  *lexer
	tok token
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: newLexer(src)}
	return p, p.advance()
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// errAt positions an error at a previously captured token (used when the
// offending construct was already consumed).
func (p *parser) errAt(t token, format string, args ...interface{}) error {
	return &ParseError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) errf(format string, args ...interface{}) error {
	return p.errAt(p.tok, format, args...)
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errf("expected %s, found %q", what, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

// parseTerm parses a variable or constant.
func (p *parser) parseTerm() (term.T, error) {
	switch p.tok.kind {
	case tokVar:
		t := term.V(p.tok.text)
		return t, p.advance()
	case tokIdent:
		if p.tok.text == "null" {
			return term.CNull(), p.advance()
		}
		t := term.CStr(p.tok.text)
		return t, p.advance()
	case tokString:
		t := term.CStr(p.tok.str)
		return t, p.advance()
	case tokNumber:
		return p.parseNumber(1)
	case tokMinus:
		if err := p.advance(); err != nil {
			return term.T{}, err
		}
		return p.parseNumber(-1)
	default:
		return term.T{}, p.errf("expected a term, found %q", p.tok.text)
	}
}

func (p *parser) parseNumber(sign int64) (term.T, error) {
	if p.tok.kind != tokNumber {
		return term.T{}, p.errf("expected a number, found %q", p.tok.text)
	}
	var n int64
	for _, c := range p.tok.text {
		n = n*10 + int64(c-'0')
	}
	return term.CInt(sign * n), p.advance()
}

// parseAtom parses pred(t1, ..., tn); 0-ary atoms are written pred or
// pred().
func (p *parser) parseAtom() (term.Atom, error) {
	name, err := p.expect(tokIdent, "a predicate name")
	if err != nil {
		return term.Atom{}, err
	}
	a := term.Atom{Pred: name.text}
	if p.tok.kind != tokLParen {
		return a, nil
	}
	if err := p.advance(); err != nil {
		return term.Atom{}, err
	}
	if p.tok.kind == tokRParen {
		return a, p.advance()
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return term.Atom{}, err
		}
		a.Args = append(a.Args, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return term.Atom{}, err
			}
			continue
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return term.Atom{}, err
		}
		return a, nil
	}
}

var ops = map[string]term.CompOp{
	"=": term.EQ, "==": term.EQ, "!=": term.NEQ,
	"<": term.LT, "<=": term.LEQ, ">": term.GT, ">=": term.GEQ,
}

// parseBuiltin parses l op r [± offset] with l already consumed.
func (p *parser) parseBuiltinAfter(l term.T) (term.Builtin, error) {
	opTok, err := p.expect(tokOp, "a comparison operator")
	if err != nil {
		return term.Builtin{}, err
	}
	op, ok := ops[opTok.text]
	if !ok {
		return term.Builtin{}, p.errf("unknown operator %q", opTok.text)
	}
	r, err := p.parseTerm()
	if err != nil {
		return term.Builtin{}, err
	}
	b := term.Builtin{Op: op, L: l, R: r}
	if p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		sign := int64(1)
		if p.tok.kind == tokMinus {
			sign = -1
		}
		if err := p.advance(); err != nil {
			return term.Builtin{}, err
		}
		off, err := p.parseNumber(sign)
		if err != nil {
			return term.Builtin{}, err
		}
		b.Offset, _ = off.Const.AsInt()
	}
	return b, nil
}

// --- instances -------------------------------------------------------------------

// Instance parses a database instance: ground facts, one per '.'.
func Instance(src string) (*relational.Instance, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	d := relational.NewInstance()
	for p.tok.kind != tokEOF {
		at := p.tok
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		if !a.IsGround() {
			return nil, p.errAt(at, "fact %s is not ground (variables start upper-case)", a)
		}
		args := make(relational.Tuple, len(a.Args))
		for i, t := range a.Args {
			args[i] = t.Const
		}
		d.Insert(relational.Fact{Pred: a.Pred, Args: args})
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// --- constraints -------------------------------------------------------------------

// Constraints parses a constraint set: ICs and NNCs, one per '.'.
func Constraints(src string) (*constraint.Set, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var ics []*constraint.IC
	var nncs []*constraint.NNC
	for p.tok.kind != tokEOF {
		parsedICs, parsedNNCs, err := p.parseConstraint()
		if err != nil {
			return nil, err
		}
		ics = append(ics, parsedICs...)
		nncs = append(nncs, parsedNNCs...)
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
	}
	return constraint.NewSet(ics, nncs)
}

func (p *parser) parseConstraint() ([]*constraint.IC, []*constraint.NNC, error) {
	var body []term.Atom
	var isnullVars []string
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, nil, err
		}
		if a.Pred == "isnull" {
			if len(a.Args) != 1 || !a.Args[0].IsVar() {
				return nil, nil, p.errf("isnull takes a single variable")
			}
			isnullVars = append(isnullVars, a.Args[0].Var)
		} else {
			body = append(body, a)
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokArrow, "'->'"); err != nil {
		return nil, nil, err
	}

	// NNC form: single body atom, isnull vars, consequent false.
	if len(isnullVars) > 0 {
		if p.tok.kind != tokIdent || p.tok.text != "false" {
			return nil, nil, p.errf("a constraint with isnull must conclude false")
		}
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		if len(body) != 1 {
			return nil, nil, p.errf("a NOT NULL-constraint has exactly one predicate atom")
		}
		var nncs []*constraint.NNC
		for _, v := range isnullVars {
			pos := -1
			for i, t := range body[0].Args {
				if t.IsVar() && t.Var == v {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, nil, p.errf("isnull variable %s does not occur in %s", v, body[0])
			}
			nncs = append(nncs, &constraint.NNC{
				Pred:  body[0].Pred,
				Arity: body[0].Arity(),
				Pos:   pos,
			})
		}
		return nil, nncs, nil
	}

	ic := &constraint.IC{Body: body}
	if p.tok.kind == tokIdent && p.tok.text == "false" {
		// Denial constraint.
		return []*constraint.IC{ic}, nil, p.advance()
	}
	for {
		// A disjunct is an atom or a comparison; a comparison starts
		// with a term that is not a predicate application.
		if p.tok.kind == tokIdent && p.tok.text != "null" {
			a, err := p.parseAtom()
			if err != nil {
				return nil, nil, err
			}
			if len(a.Args) == 0 && p.tok.kind == tokOp {
				// Bare identifier: constant on the left of a
				// comparison.
				b, err := p.parseBuiltinAfter(term.CStr(a.Pred))
				if err != nil {
					return nil, nil, err
				}
				ic.Phi = append(ic.Phi, b)
			} else {
				ic.Head = append(ic.Head, a)
			}
		} else {
			l, err := p.parseTerm()
			if err != nil {
				return nil, nil, err
			}
			b, err := p.parseBuiltinAfter(l)
			if err != nil {
				return nil, nil, err
			}
			ic.Phi = append(ic.Phi, b)
		}
		if p.tok.kind == tokPipe {
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			continue
		}
		break
	}
	ic.Standardize()
	return []*constraint.IC{ic}, nil, nil
}

// --- queries -------------------------------------------------------------------

// Query parses a datalog-style query: one or more rules sharing a head
// predicate, whose union is the query.
func Query(src string) (*query.Q, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var q *query.Q
	for p.tok.kind != tokEOF {
		at := p.tok
		head, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		var headVars []string
		for _, t := range head.Args {
			if !t.IsVar() {
				return nil, p.errAt(at, "query head arguments must be variables, got %s", t)
			}
			headVars = append(headVars, t.Var)
		}
		if q == nil {
			q = &query.Q{Name: head.Pred, Head: headVars}
		} else if head.Pred != q.Name || len(headVars) != len(q.Head) {
			return nil, p.errAt(at, "all query rules must share the head %s/%d", q.Name, len(q.Head))
		}
		var conj query.Conj
		if p.tok.kind == tokGets {
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				neg := false
				if p.tok.kind == tokIdent && p.tok.text == "not" {
					if err := p.advance(); err != nil {
						return nil, err
					}
					neg = true
				}
				if p.tok.kind == tokIdent && !neg {
					a, err := p.parseAtom()
					if err != nil {
						return nil, err
					}
					if p.tok.kind == tokOp {
						if len(a.Args) != 0 {
							return nil, p.errf("unexpected comparison after atom %s", a)
						}
						b, err := p.parseBuiltinAfter(term.CStr(a.Pred))
						if err != nil {
							return nil, err
						}
						conj.Builtins = append(conj.Builtins, b)
					} else {
						conj.Lits = append(conj.Lits, query.Literal{Atom: a})
					}
				} else if neg {
					a, err := p.parseAtom()
					if err != nil {
						return nil, err
					}
					conj.Lits = append(conj.Lits, query.Literal{Atom: a, Neg: true})
				} else {
					l, err := p.parseTerm()
					if err != nil {
						return nil, err
					}
					b, err := p.parseBuiltinAfter(l)
					if err != nil {
						return nil, err
					}
					conj.Builtins = append(conj.Builtins, b)
				}
				if p.tok.kind == tokComma {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		}
		// Rules with head variables rewritten: if the head used the
		// same variable twice or a rule binds head vars only in the
		// head, Validate will object later.
		q.Disjuncts = append(q.Disjuncts, conj)
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
	}
	if q == nil {
		return nil, p.errf("empty query")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustInstance is Instance, panicking on error (for tests and examples).
func MustInstance(src string) *relational.Instance {
	d, err := Instance(src)
	if err != nil {
		panic(err)
	}
	return d
}

// MustConstraints is Constraints, panicking on error.
func MustConstraints(src string) *constraint.Set {
	s, err := Constraints(src)
	if err != nil {
		panic(err)
	}
	return s
}

// MustQuery is Query, panicking on error.
func MustQuery(src string) *query.Q {
	q, err := Query(src)
	if err != nil {
		panic(err)
	}
	return q
}

// FormatValue renders a value in parser-compatible syntax. A string
// constant is written bare when it reads back as itself (a lower-case
// identifier other than null) and with strconv.Quote otherwise.
func FormatValue(v value.V) string {
	if v.IsNull() {
		return "null"
	}
	if i, ok := v.AsInt(); ok {
		return fmt.Sprint(i)
	}
	s, _ := v.AsStr()
	if s == "" || s == "null" || !(s[0] >= 'a' && s[0] <= 'z') {
		return strconv.Quote(s)
	}
	for i := 0; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return strconv.Quote(s)
		}
	}
	return s
}
