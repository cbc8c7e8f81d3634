package query

import (
	"math/rand"
	"testing"

	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// Differential test: the index-backed, selectivity-reordered join must
// return exactly the answers of a naive evaluator that keeps the literal
// order and filters the full fact list per atom (the seed strategy). The
// randomized-instance shape mirrors internal/session/fuzz_test.go.

// naiveEval evaluates q with no reordering and no index: for each disjunct,
// positive literals are joined by scanning Facts() in the order written.
func naiveEval(d *relational.Instance, q *Q, opts Options) []relational.Tuple {
	seen := map[string]relational.Tuple{}
	for _, disj := range q.Disjuncts {
		var posAtoms []term.Atom
		for _, l := range disj.Lits {
			if !l.Neg {
				posAtoms = append(posAtoms, l.Atom)
			}
		}
		subst := term.Subst{}
		var rec func(i int)
		rec = func(i int) {
			if i == len(posAtoms) {
				for _, b := range disj.Builtins {
					if opts.Mode == SQLNulls {
						if res, ok := b.Eval3(subst); !ok || res != value.True3 {
							return
						}
					} else if res, ok := b.Eval(subst); !ok || !res {
						return
					}
				}
				for _, l := range disj.Lits {
					if !l.Neg {
						continue
					}
					if opts.Mode == SQLNulls {
						if naiveHoldsSQL(d, l.Atom, subst) {
							return
						}
					} else if holdsGround(d, l.Atom, subst) {
						return
					}
				}
				out := make(relational.Tuple, len(q.Head))
				for j, v := range q.Head {
					out[j] = subst[v]
				}
				if opts.ExcludeNullAnswers && out.HasNull() {
					return
				}
				seen[out.Key()] = out
				return
			}
			a := posAtoms[i]
			for _, f := range d.Facts() {
				if f.Pred != a.Pred || len(f.Args) != a.Arity() {
					continue
				}
				var bound []string
				var ok bool
				if opts.Mode == SQLNulls {
					bound, ok = matchAtomSQL(f.Args, a, subst)
				} else {
					bound, ok = relational.MatchAtom(f.Args, a, subst)
				}
				if !ok {
					continue
				}
				rec(i + 1)
				relational.Unbind(subst, bound)
			}
		}
		rec(0)
	}
	out := make([]relational.Tuple, 0, len(seen))
	for _, tp := range seen {
		out = append(out, tp)
	}
	return relationalSort(out)
}

// naiveHoldsSQL is the pre-engine row scan for negated ground atoms under
// SQL null semantics.
func naiveHoldsSQL(d *relational.Instance, a term.Atom, subst term.Subst) bool {
	args := make(relational.Tuple, len(a.Args))
	for i, t := range a.Args {
		v, ok := subst.Apply(t)
		if !ok {
			return false
		}
		args[i] = v
	}
	found := false
	for _, f := range d.Facts() {
		if f.Pred != a.Pred || len(f.Args) != len(args) {
			continue
		}
		match := true
		for i := range args {
			if f.Args[i].Eq3(args[i]) != value.True3 {
				match = false
				break
			}
		}
		if match {
			found = true
			break
		}
	}
	return found
}

func relationalSort(ts []relational.Tuple) []relational.Tuple {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Compare(ts[j-1]) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	return ts
}

func TestIndexedEvalMatchesNaiveScan(t *testing.T) {
	// Queries are built with term constructors: the parser package imports
	// query, so it cannot be used from these in-package tests.
	pos := func(pred string, args ...term.T) Literal {
		return Literal{Atom: term.NewAtom(pred, args...)}
	}
	neg := func(pred string, args ...term.T) Literal {
		return Literal{Atom: term.NewAtom(pred, args...), Neg: true}
	}
	queries := []*Q{
		// q(Id) :- student(Id, Name).
		{Name: "q", Head: []string{"Id"}, Disjuncts: []Conj{
			{Lits: []Literal{pos("student", term.V("Id"), term.V("Name"))}},
		}},
		// q(U) :- s(U, V), r(V, W).
		{Name: "q", Head: []string{"U"}, Disjuncts: []Conj{
			{Lits: []Literal{pos("s", term.V("U"), term.V("V")), pos("r", term.V("V"), term.V("W"))}},
		}},
		// q(X) :- r(X, Y), not s(X, Y).
		{Name: "q", Head: []string{"X"}, Disjuncts: []Conj{
			{Lits: []Literal{pos("r", term.V("X"), term.V("Y")), neg("s", term.V("X"), term.V("Y"))}},
		}},
		// q(X, Z) :- r(X, Y), r(Y, Z), X != Z.
		{Name: "q", Head: []string{"X", "Z"}, Disjuncts: []Conj{
			{
				Lits:     []Literal{pos("r", term.V("X"), term.V("Y")), pos("r", term.V("Y"), term.V("Z"))},
				Builtins: []term.Builtin{{Op: term.NEQ, L: term.V("X"), R: term.V("Z")}},
			},
		}},
		// q(V) :- s(U, V), not r(V, V).  |  q(V) :- r(V, W), W = a.
		{Name: "q", Head: []string{"V"}, Disjuncts: []Conj{
			{Lits: []Literal{pos("s", term.V("U"), term.V("V")), neg("r", term.V("V"), term.V("V"))}},
			{
				Lits:     []Literal{pos("r", term.V("V"), term.V("W"))},
				Builtins: []term.Builtin{{Op: term.EQ, L: term.V("W"), R: term.CStr("a")}},
			},
		}},
	}
	rng := rand.New(rand.NewSource(2028))
	vals := []value.V{value.Str("a"), value.Str("b"), value.Null(), value.Int(21)}
	pick := func() value.V { return vals[rng.Intn(len(vals))] }

	for trial := 0; trial < 200; trial++ {
		d := relational.NewInstance()
		for k := 0; k < 1+rng.Intn(4); k++ {
			d.Insert(relational.F("r", pick(), pick()))
		}
		for k := 0; k < rng.Intn(4); k++ {
			d.Insert(relational.F("s", pick(), pick()))
		}
		for k := 0; k < rng.Intn(3); k++ {
			d.Insert(relational.F("student", pick(), pick()))
		}
		if rng.Intn(2) == 0 {
			d = d.Clone()
			d.Insert(relational.F("r", pick(), pick()))
			d.Delete(relational.F("s", pick(), pick()))
		}
		for qi, q := range queries {
			for _, opts := range []Options{
				{Mode: ConstantNulls},
				{Mode: SQLNulls},
				{Mode: ConstantNulls, ExcludeNullAnswers: true},
				{Mode: SQLNulls, ExcludeNullAnswers: true},
			} {
				got, err := EvalWith(d, q, opts)
				if err != nil {
					t.Fatalf("trial %d q%d: %v", trial, qi, err)
				}
				want := naiveEval(d, q, opts)
				if len(got) != len(want) {
					t.Fatalf("trial %d q%d opts %+v: indexed %d answers, naive %d\nD = %v\nindexed %v\nnaive %v",
						trial, qi, opts, len(got), len(want), d, got, want)
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("trial %d q%d opts %+v: answer %d differs: %v vs %v",
							trial, qi, opts, i, got[i], want[i])
					}
				}
			}
		}
	}
}
