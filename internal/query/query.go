// Package query implements the query language over which consistent query
// answering (Definition 8) is defined: safe unions of conjunctive queries
// with negated atoms and builtin comparisons — the fragment the CQA
// literature works with, covering safe first-order queries in the sense of
// Van Gelder & Topor (the paper's [32]).
//
// Query answering over databases with nulls follows the same convention as
// IC checking inside repairs: null is an ordinary constant (null joins with
// null, and a negated atom holds iff the ground atom is absent). The paper
// deliberately leaves the query semantics |=q_N open ("we are not
// committing to any particular semantics"), requiring only polynomial data
// complexity and agreement with classical semantics on null-free databases;
// this choice satisfies both requirements and matches how the repair
// programs treat null.
package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
	"repro/internal/term"
)

// Literal is a possibly negated predicate atom.
type Literal struct {
	Atom term.Atom
	Neg  bool
}

func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Conj is one conjunctive disjunct of a query.
type Conj struct {
	Lits     []Literal
	Builtins []term.Builtin
}

func (c Conj) String() string {
	parts := make([]string, 0, len(c.Lits)+len(c.Builtins))
	for _, l := range c.Lits {
		parts = append(parts, l.String())
	}
	for _, b := range c.Builtins {
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ", ")
}

// Q is a query: a union of conjunctive queries with negation, projected
// onto the head variables. An empty Head makes it a boolean query.
type Q struct {
	// Name labels the query in output (e.g. "q").
	Name string
	// Head lists the free (answer) variables.
	Head []string
	// Disjuncts are the union members; at least one is required.
	Disjuncts []Conj
}

func (q *Q) String() string {
	head := q.Name
	if head == "" {
		head = "q"
	}
	head += "(" + strings.Join(q.Head, ",") + ")"
	parts := make([]string, len(q.Disjuncts))
	for i, d := range q.Disjuncts {
		parts[i] = head + " :- " + d.String() + "."
	}
	return strings.Join(parts, "\n")
}

// IsBoolean reports whether the query has no answer variables.
func (q *Q) IsBoolean() bool { return len(q.Head) == 0 }

// Preds returns the sorted, deduplicated predicate names the query
// mentions (positive and negated literals across all disjuncts). A base
// update touching none of them cannot change the query's answers on any
// fixed instance, which is what lets a session skip re-evaluating
// standing queries unaffected by a delta.
func (q *Q) Preds() []string {
	seen := map[string]bool{}
	for _, d := range q.Disjuncts {
		for _, l := range d.Lits {
			seen[l.Atom.Pred] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Validate checks safety: in every disjunct, each head variable, negated
// variable and builtin variable must occur in a positive literal.
func (q *Q) Validate() error {
	if len(q.Disjuncts) == 0 {
		return fmt.Errorf("query %s: no disjuncts", q.Name)
	}
	for i, d := range q.Disjuncts {
		posVars := map[string]bool{}
		for _, l := range d.Lits {
			if !l.Neg {
				for _, t := range l.Atom.Args {
					if t.IsVar() {
						posVars[t.Var] = true
					}
				}
			}
		}
		check := func(v, role string) error {
			if !posVars[v] {
				return fmt.Errorf("query %s, disjunct %d: %s variable %q not bound by a positive literal (unsafe)",
					q.Name, i+1, role, v)
			}
			return nil
		}
		for _, v := range q.Head {
			if err := check(v, "head"); err != nil {
				return err
			}
		}
		for _, l := range d.Lits {
			if l.Neg {
				for _, t := range l.Atom.Args {
					if t.IsVar() {
						if err := check(t.Var, "negated"); err != nil {
							return err
						}
					}
				}
			}
		}
		for _, b := range d.Builtins {
			for _, v := range b.Vars(nil) {
				if err := check(v, "builtin"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Eval returns the distinct answers of the query over the instance, sorted.
// For boolean queries the result is non-nil (a single empty tuple) iff the
// query holds.
func Eval(d *relational.Instance, q *Q) ([]relational.Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	seen := map[string]relational.Tuple{}
	for _, disj := range q.Disjuncts {
		evalConj(d, disj, q.Head, func(t relational.Tuple) {
			seen[t.Key()] = t
		})
	}
	out := make([]relational.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}

// EvalBool evaluates a boolean query.
func EvalBool(d *relational.Instance, q *Q) (bool, error) {
	if !q.IsBoolean() {
		return false, fmt.Errorf("query %s is not boolean", q.Name)
	}
	ts, err := Eval(d, q)
	if err != nil {
		return false, err
	}
	return len(ts) > 0, nil
}

// evalConj joins the positive literals — planned by relational.PlanJoin
// and resolved through per-relation hash indexes on the bound columns —
// then filters by the negated literals, yielding each head projection.
func evalConj(d *relational.Instance, c Conj, head []string, yield func(relational.Tuple)) {
	var buf [8]term.Atom
	subst := term.Subst{}
	joinConj(d, c, positiveAtoms(buf[:0], c), subst, func() bool {
		if negsHold(d, c, subst) {
			yield(projectHead(head, subst))
		}
		return true
	})
}

// ForEachAssignment enumerates every assignment of c's positive literals
// over d that satisfies c's builtins, with the join planned and resolved
// through the per-relation hash indexes, exactly as evalConj does.
// Negated literals are NOT applied: callers that answer negation against a
// set of instances at once (the direct engine evaluates a negated literal
// against every repair simultaneously) own that check themselves. The subst
// passed to yield is reused across calls — copy it if it must outlive the
// callback. yield returns false to stop the enumeration early.
func ForEachAssignment(d *relational.Instance, c Conj, yield func(term.Subst) bool) {
	var buf [8]term.Atom
	subst := term.Subst{}
	joinConj(d, c, positiveAtoms(buf[:0], c), subst, func() bool { return yield(subst) })
}

// ForEachAnchored enumerates the assignments of c's positive literals over
// d in which literal li — positive or negated — is instantiated to the fact
// f: f's arguments seed the substitution through that literal's atom, and
// the join completes the other positive literals (all of them when li is
// negated) against d's indexes, checking c's builtins. It is the Δ-anchored
// entry point of the join: f is typically a fact an update added or
// removed, and f need not be in d. Negated literals are not applied, as in
// ForEachAssignment. subst must be empty: it holds each assignment while
// yield runs and is empty again on return, so one map serves every call.
// yield returns false to stop.
func ForEachAnchored(d *relational.Instance, c Conj, li int, f relational.Fact, subst term.Subst, yield func() bool) {
	a := c.Lits[li].Atom
	if a.Pred != f.Pred || a.Arity() != len(f.Args) {
		return
	}
	bound, ok := relational.MatchAtom(f.Args, a, subst)
	if !ok {
		return
	}
	var buf [8]term.Atom
	atoms := buf[:0]
	for j, l := range c.Lits {
		if !l.Neg && j != li {
			atoms = append(atoms, l.Atom)
		}
	}
	joinConj(d, c, atoms, subst, yield)
	relational.Unbind(subst, bound)
}

// ForEachBound enumerates the assignments of c's positive literals over d
// that give the head variables the values of t — the head-bound entry point
// of the join, whose cost tracks the assignments of that one answer. A head
// repeating a variable with two different values in t has none. Negated
// literals are not applied, as in ForEachAssignment. subst must be empty:
// it holds each assignment while yield runs and is empty again on return.
// yield returns false to stop.
func ForEachBound(d *relational.Instance, c Conj, head []string, t relational.Tuple, subst term.Subst, yield func() bool) {
	defer clear(subst)
	for j, v := range head {
		if prev, bound := subst[v]; bound {
			if !prev.Eq(t[j]) {
				return
			}
			continue
		}
		subst[v] = t[j]
	}
	var buf [8]term.Atom
	joinConj(d, c, positiveAtoms(buf[:0], c), subst, yield)
}

// positiveAtoms appends the positive literals of a disjunct, in order, to
// dst.
func positiveAtoms(dst []term.Atom, c Conj) []term.Atom {
	for _, l := range c.Lits {
		if !l.Neg {
			dst = append(dst, l.Atom)
		}
	}
	return dst
}

// joinConj enumerates the assignments of the atoms (c's positive literals,
// or all but a Δ-anchored one) over d that satisfy c's builtins, extending
// subst in place — the one join path of the from-scratch, the Δ-anchored
// and the head-bound evaluations. The join is planned around the variables
// subst already binds, and each builtin is checked at the earliest step
// that binds its variables. yield returns false to stop.
func joinConj(d *relational.Instance, c Conj, atoms []term.Atom, subst term.Subst, yield func() bool) {
	var prebuf [8]string
	pre := prebuf[:0]
	for v := range subst {
		pre = append(pre, v)
	}
	steps, ready := relational.PlanJoin(d, atoms, c.Builtins, pre)
	if relational.BuiltinsHold(ready, subst) {
		relational.Join(d, steps, subst, yield)
	}
}

// negsHold reports whether no negated literal of c holds under a complete
// assignment, with null as an ordinary constant (the package's default
// ConstantNulls semantics).
func negsHold(d *relational.Instance, c Conj, subst term.Subst) bool {
	for _, l := range c.Lits {
		if l.Neg && holdsGround(d, l.Atom, subst) {
			return false
		}
	}
	return true
}

// projectHead materializes the head projection of an assignment.
func projectHead(head []string, subst term.Subst) relational.Tuple {
	out := make(relational.Tuple, len(head))
	for j, v := range head {
		out[j] = subst[v]
	}
	return out
}

func holdsGround(d *relational.Instance, a term.Atom, subst term.Subst) bool {
	args := make(relational.Tuple, len(a.Args))
	for i, t := range a.Args {
		v, ok := subst.Apply(t)
		if !ok {
			return false
		}
		args[i] = v
	}
	return d.Has(relational.Fact{Pred: a.Pred, Args: args})
}
