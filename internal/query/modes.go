package query

import (
	"sort"

	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// The paper deliberately leaves the query-answering semantics |=q_N open
// (Section 4: "we are not committing to any particular semantics", only
// requiring polynomial evaluation and agreement with classical semantics on
// null-free databases). This file provides the two natural candidates as
// explicit modes:
//
//   - ConstantNulls (the package default, used by CQA): null behaves as an
//     ordinary constant — null joins with null, negation is set membership,
//     comparisons treat null as a plain value. This matches how Definition 4
//     evaluates ψ_N and how the repair programs treat null.
//   - SQLNulls: null never equals anything (not even null), so joins and
//     selections involving null fail, and builtin comparisons follow
//     three-valued logic with unknown discarded. This matches the behaviour
//     of SQL query evaluation in commercial DBMSs.
//
// Both coincide on databases without nulls, as the paper requires.

// Mode selects the null treatment during query evaluation.
type Mode uint8

const (
	// ConstantNulls treats null as an ordinary constant.
	ConstantNulls Mode = iota
	// SQLNulls makes every comparison with null unknown (discarded).
	SQLNulls
)

func (m Mode) String() string {
	if m == SQLNulls {
		return "sql-nulls"
	}
	return "constant-nulls"
}

// Options configures evaluation.
type Options struct {
	Mode Mode
	// ExcludeNullAnswers drops answer tuples containing null (the
	// SQL-style presentation choice for certain answers).
	ExcludeNullAnswers bool
}

// EvalWith evaluates the query under explicit options. Eval is equivalent
// to EvalWith with the zero Options.
func EvalWith(d *relational.Instance, q *Q, opts Options) ([]relational.Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	seen := map[string]relational.Tuple{}
	for _, disj := range q.Disjuncts {
		evalConjWith(d, disj, q.Head, opts, func(t relational.Tuple) {
			if opts.ExcludeNullAnswers && t.HasNull() {
				return
			}
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

func evalConjWith(d *relational.Instance, c Conj, head []string, opts Options, yield func(relational.Tuple)) {
	if opts.Mode == ConstantNulls {
		evalConj(d, c, head, yield)
		return
	}
	// Only the join order is shared with the default evaluator: SQL
	// comparisons are three-valued, so the builtins stay at the leaf.
	var buf [8]term.Atom
	steps, _ := relational.PlanJoin(d, positiveAtoms(buf[:0], c), nil, nil)
	subst := term.Subst{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(steps) {
			for _, b := range c.Builtins {
				res, ok := b.Eval3(subst)
				if !ok || res != value.True3 {
					return
				}
			}
			for _, l := range c.Lits {
				if l.Neg && holdsGroundSQL(d, l.Atom, subst) {
					return
				}
			}
			out := make(relational.Tuple, len(head))
			for j, v := range head {
				out[j] = subst[v]
			}
			yield(out)
			return
		}
		a := steps[i].Atom
		bs, possible := bindingsSQL(a, subst)
		if !possible {
			return
		}
		d.Scan(a.Pred, a.Arity(), bs, func(tuple relational.Tuple) bool {
			bound, ok := matchAtomSQL(tuple, a, subst)
			if !ok {
				return true
			}
			rec(i + 1)
			relational.Unbind(subst, bound)
			return true
		})
	}
	rec(0)
}

// bindingsSQL derives the index-servable columns under SQL null semantics:
// only non-null constants and non-null bound variables are equality probes
// (Eq3 == True3 implies interned-id equality of non-null values). A null
// want can never match any stored value, so the whole atom is unsatisfiable
// and possible is false.
func bindingsSQL(a term.Atom, subst term.Subst) (bs []relational.Binding, possible bool) {
	for i, t := range a.Args {
		var want value.V
		if !t.IsVar() {
			want = t.Const
		} else if v, ok := subst[t.Var]; ok {
			want = v
		} else {
			continue
		}
		if want.IsNull() {
			return nil, false
		}
		bs = append(bs, relational.Binding{Pos: i, Val: want})
	}
	return bs, true
}

// matchAtomSQL unifies with SQL null semantics: a null in the tuple can
// bind a fresh variable (NULL is retrievable), but never satisfies an
// equality against a constant or an already-bound variable — not even
// another null.
func matchAtomSQL(tuple relational.Tuple, a term.Atom, subst term.Subst) (bound []string, ok bool) {
	for idx, t := range a.Args {
		if !t.IsVar() {
			if tuple[idx].Eq3(t.Const) != value.True3 {
				relational.Unbind(subst, bound)
				return nil, false
			}
			continue
		}
		if v, isBound := subst[t.Var]; isBound {
			if tuple[idx].Eq3(v) != value.True3 {
				relational.Unbind(subst, bound)
				return nil, false
			}
			continue
		}
		subst[t.Var] = tuple[idx]
		bound = append(bound, t.Var)
	}
	return bound, true
}

// holdsGroundSQL checks negated membership under SQL semantics: a ground
// atom involving null never matches a stored row (every Eq3 against null is
// unknown), and a fully non-null atom matches exactly the identical stored
// row — an O(1) membership probe.
func holdsGroundSQL(d *relational.Instance, a term.Atom, subst term.Subst) bool {
	args := make(relational.Tuple, len(a.Args))
	for i, t := range a.Args {
		v, ok := subst.Apply(t)
		if !ok {
			return false
		}
		if v.IsNull() {
			return false
		}
		args[i] = v
	}
	return d.Has(relational.Fact{Pred: a.Pred, Args: args})
}
