// Package logic implements disjunctive logic programs with default negation
// and builtin comparisons — the program class of Section 5 of the paper
// (repair programs run under the stable model semantics of Gelfond &
// Lifschitz). Programs here are function-free (datalog) with constants from
// the database domain, including null, which behaves as an ordinary
// constant inside programs ("in the repair program, null is treated as any
// other constant in U").
package logic

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/term"
)

// Rule is a disjunctive rule
//
//	H1 v ... v Hk :- P1, ..., Pm, not N1, ..., not Nn, B1, ..., Bl.
//
// An empty Head makes it a (program denial) constraint. Facts are rules
// with a single head atom and an empty body, but are usually supplied via
// Program.Facts.
type Rule struct {
	Head     []term.Atom
	Pos      []term.Atom
	Neg      []term.Atom
	Builtins []term.Builtin
}

// Vars returns the variables of the rule, deduplicated in order of first
// occurrence.
func (r Rule) Vars() []string {
	var raw []string
	for _, a := range r.Head {
		raw = a.Vars(raw)
	}
	for _, a := range r.Pos {
		raw = a.Vars(raw)
	}
	for _, a := range r.Neg {
		raw = a.Vars(raw)
	}
	for _, b := range r.Builtins {
		raw = b.Vars(raw)
	}
	seen := map[string]bool{}
	out := raw[:0]
	for _, v := range raw {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Safe reports whether every variable of the rule occurs in some positive
// body atom — the safety condition grounding requires.
func (r Rule) Safe() bool {
	inPos := map[string]bool{}
	for _, a := range r.Pos {
		for _, t := range a.Args {
			if t.IsVar() {
				inPos[t.Var] = true
			}
		}
	}
	for _, v := range r.Vars() {
		if !inPos[v] {
			return false
		}
	}
	return true
}

// String renders the rule in DLV-like syntax.
func (r Rule) String() string {
	var b strings.Builder
	for i, a := range r.Head {
		if i > 0 {
			b.WriteString(" v ")
		}
		b.WriteString(a.String())
	}
	bodyParts := make([]string, 0, len(r.Pos)+len(r.Neg)+len(r.Builtins))
	for _, a := range r.Pos {
		bodyParts = append(bodyParts, a.String())
	}
	for _, a := range r.Neg {
		bodyParts = append(bodyParts, "not "+a.String())
	}
	for _, bi := range r.Builtins {
		bodyParts = append(bodyParts, bi.String())
	}
	if len(bodyParts) > 0 {
		if len(r.Head) > 0 {
			b.WriteString(" ")
		}
		b.WriteString(":- ")
		b.WriteString(strings.Join(bodyParts, ", "))
	}
	b.WriteString(".")
	return b.String()
}

// Program is a disjunctive logic program: ground facts plus rules.
type Program struct {
	Facts []term.Atom
	Rules []Rule
}

// AddInstance appends every fact of a database instance (rule 1 of
// Definition 9), in the store's deterministic iteration order and without
// materializing an intermediate slice.
func (p *Program) AddInstance(d *relational.Instance) {
	d.ForEach(func(f relational.Fact) bool {
		p.Facts = append(p.Facts, FactAtom(f))
		return true
	})
}

// FactAtom converts a database fact into a ground program atom.
func FactAtom(f relational.Fact) term.Atom {
	args := make([]term.T, len(f.Args))
	for i, v := range f.Args {
		args[i] = term.C(v)
	}
	return term.Atom{Pred: f.Pred, Args: args}
}

// Validate checks that all rules are safe and all facts ground.
func (p *Program) Validate() error {
	for _, f := range p.Facts {
		if !f.IsGround() {
			return fmt.Errorf("logic: fact %s is not ground", f)
		}
	}
	for i, r := range p.Rules {
		if !r.Safe() {
			return fmt.Errorf("logic: rule %d is unsafe: %s", i+1, r)
		}
	}
	return nil
}

// String renders the program: facts first, then rules.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// DLV renders the program in DLV syntax: predicate names and constants are
// lower-cased or quoted as needed, null is the constant null, and builtin
// operators use DLV spellings. The output is accepted by the DLV system the
// paper used, enabling interop checks.
func (p *Program) DLV() string {
	var b strings.Builder
	for _, f := range p.Facts {
		b.WriteString(dlvAtom(f))
		b.WriteString(".\n")
	}
	for _, r := range p.Rules {
		var heads []string
		for _, a := range r.Head {
			heads = append(heads, dlvAtom(a))
		}
		var body []string
		for _, a := range r.Pos {
			body = append(body, dlvAtom(a))
		}
		for _, a := range r.Neg {
			body = append(body, "not "+dlvAtom(a))
		}
		for _, bi := range r.Builtins {
			body = append(body, dlvBuiltin(bi))
		}
		b.WriteString(strings.Join(heads, " v "))
		if len(body) > 0 {
			if len(heads) > 0 {
				b.WriteString(" ")
			}
			b.WriteString(":- ")
			b.WriteString(strings.Join(body, ", "))
		}
		b.WriteString(".\n")
	}
	return b.String()
}

func dlvAtom(a term.Atom) string {
	name := dlvIdent(a.Pred)
	if len(a.Args) == 0 {
		return name
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = dlvTerm(t)
	}
	return name + "(" + strings.Join(parts, ",") + ")"
}

func dlvTerm(t term.T) string {
	if t.IsVar() {
		return strings.ToUpper(t.Var[:1]) + t.Var[1:]
	}
	v := t.Const
	if v.IsNull() {
		return "null"
	}
	if i, ok := v.AsInt(); ok {
		return fmt.Sprint(i)
	}
	s, _ := v.AsStr()
	return dlvIdent(s)
}

func dlvIdent(s string) string {
	if s == "" {
		return `""`
	}
	ok := s[0] >= 'a' && s[0] <= 'z'
	if ok {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
				ok = false
				break
			}
		}
	}
	if ok {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

func dlvBuiltin(b term.Builtin) string {
	rhs := dlvTerm(b.R)
	switch {
	case b.Offset > 0:
		rhs = fmt.Sprintf("%s+%d", rhs, b.Offset)
	case b.Offset < 0:
		rhs = fmt.Sprintf("%s-%d", rhs, -b.Offset)
	}
	return dlvTerm(b.L) + " " + b.Op.String() + " " + rhs
}
