// Package term provides the shared first-order building blocks of the paper's
// languages: terms (variables or domain constants), predicate atoms, builtin
// comparison atoms, and substitutions. Constraints (internal/constraint),
// queries (internal/query) and logic programs (internal/logic) are all built
// from these.
package term

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// T is a term: either a variable (Var != "") or a domain constant.
type T struct {
	Var   string
	Const value.V
}

// V returns a variable term.
func V(name string) T { return T{Var: name} }

// C returns a constant term.
func C(v value.V) T { return T{Const: v} }

// CInt returns an integer constant term.
func CInt(i int64) T { return C(value.Int(i)) }

// CStr returns a string constant term.
func CStr(s string) T { return C(value.Str(s)) }

// CNull returns the null constant term.
func CNull() T { return C(value.Null()) }

// IsVar reports whether t is a variable.
func (t T) IsVar() bool { return t.Var != "" }

func (t T) String() string {
	if t.IsVar() {
		return t.Var
	}
	return t.Const.String()
}

// Atom is a predicate atom P(t1, ..., tn). Predicates are identified by name
// and arity, so P/2 and P/3 are distinct (this matters for the annotated
// predicates of repair programs).
type Atom struct {
	Pred string
	Args []T
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...T) Atom { return Atom{Pred: pred, Args: args} }

func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars appends the variables of a, in order of occurrence with duplicates, to
// dst and returns the extended slice.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, t.Var)
		}
	}
	return dst
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]T, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// CompOp is a builtin comparison operator.
type CompOp uint8

// The builtin comparison operators of B.
const (
	EQ CompOp = iota
	NEQ
	LT
	LEQ
	GT
	GEQ
)

func (op CompOp) String() string {
	switch op {
	case EQ:
		return "="
	case NEQ:
		return "!="
	case LT:
		return "<"
	case LEQ:
		return "<="
	case GT:
		return ">"
	case GEQ:
		return ">="
	default:
		return fmt.Sprintf("CompOp(%d)", uint8(op))
	}
}

// Negate returns the complementary operator (used to build the conjunction
// ϕ̄ equivalent to the negation of the disjunction ϕ in repair programs).
func (op CompOp) Negate() CompOp {
	switch op {
	case EQ:
		return NEQ
	case NEQ:
		return EQ
	case LT:
		return GEQ
	case LEQ:
		return GT
	case GT:
		return LEQ
	default: // GEQ
		return LT
	}
}

// Builtin is a builtin comparison atom t1 op (t2 + Offset) from B. The
// optional integer Offset supports arithmetic comparisons such as the
// "u > w + 15" of the paper's Example 8; it only applies when the right side
// evaluates to an integer.
type Builtin struct {
	Op     CompOp
	L, R   T
	Offset int64
}

func (b Builtin) String() string {
	rhs := b.R.String()
	switch {
	case b.Offset > 0:
		rhs = fmt.Sprintf("%s+%d", rhs, b.Offset)
	case b.Offset < 0:
		rhs = fmt.Sprintf("%s-%d", rhs, -b.Offset)
	}
	return b.L.String() + " " + b.Op.String() + " " + rhs
}

// Negate returns the complementary builtin.
func (b Builtin) Negate() Builtin {
	return Builtin{Op: b.Op.Negate(), L: b.L, R: b.R, Offset: b.Offset}
}

// Vars appends the variables of b to dst.
func (b Builtin) Vars(dst []string) []string {
	if b.L.IsVar() {
		dst = append(dst, b.L.Var)
	}
	if b.R.IsVar() {
		dst = append(dst, b.R.Var)
	}
	return dst
}

// EvalGround evaluates the builtin on two constants with null treated as an
// ordinary constant: equality and inequality are total, while order
// comparisons between incomparable values (different kinds, or null) are
// false. This is the evaluation mode of Definition 4.
func (op CompOp) EvalGround(l, r value.V) bool {
	switch op {
	case EQ:
		return l.Eq(r)
	case NEQ:
		return !l.Eq(r)
	}
	cmp, ok := l.Order(r)
	if !ok {
		return false
	}
	switch op {
	case LT:
		return cmp < 0
	case LEQ:
		return cmp <= 0
	case GT:
		return cmp > 0
	default: // GEQ
		return cmp >= 0
	}
}

// EvalGround3 evaluates the builtin in three-valued SQL logic: any comparison
// involving null is unknown.
func (op CompOp) EvalGround3(l, r value.V) value.Bool3 {
	if l.IsNull() || r.IsNull() {
		return value.Unknown3
	}
	if op.EvalGround(l, r) {
		return value.True3
	}
	return value.False3
}

// Subst is a substitution from variable names to domain constants.
type Subst map[string]value.V

// Apply resolves a term under the substitution. Unbound variables are
// reported with ok = false.
func (s Subst) Apply(t T) (value.V, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := s[t.Var]
	return v, ok
}

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	c := make(Subst, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// String renders the substitution deterministically, e.g. {x=a, y=null}.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + s[k].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// rhs resolves the right-hand side including the offset. A non-zero offset
// on a non-integer right side makes the side unresolvable (reported via ok).
func (b Builtin) rhs(s Subst) (value.V, bool) {
	r, ok := s.Apply(b.R)
	if !ok {
		return value.V{}, false
	}
	if b.Offset == 0 {
		return r, true
	}
	i, isInt := r.AsInt()
	if !isInt {
		return value.V{}, false
	}
	return value.Int(i + b.Offset), true
}

// Eval evaluates a builtin under a substitution in ordinary-constant mode.
// It reports ok = false if a variable is unbound. An offset applied to a
// non-integer right side evaluates to false (res=false, ok=true) since the
// comparison cannot hold.
func (b Builtin) Eval(s Subst) (res, ok bool) {
	l, okL := s.Apply(b.L)
	if !okL {
		return false, false
	}
	if _, okVar := s.Apply(b.R); !okVar {
		return false, false
	}
	r, okR := b.rhs(s)
	if !okR {
		return false, true
	}
	return b.Op.EvalGround(l, r), true
}

// Eval3 evaluates a builtin under a substitution in three-valued SQL logic
// (comparisons with null are unknown). It reports ok = false if a variable
// is unbound.
func (b Builtin) Eval3(s Subst) (res value.Bool3, ok bool) {
	l, okL := s.Apply(b.L)
	if !okL {
		return value.False3, false
	}
	rRaw, okVar := s.Apply(b.R)
	if !okVar {
		return value.False3, false
	}
	if l.IsNull() || rRaw.IsNull() {
		return value.Unknown3, true
	}
	r, okR := b.rhs(s)
	if !okR {
		return value.False3, true
	}
	return b.Op.EvalGround3(l, r), true
}
