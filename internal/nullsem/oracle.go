package nullsem

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/relational"
	"repro/internal/term"
)

// This file contains the literal implementation of Definition 4: materialize
// the projected instance D^A(ψ) (Definition 3), build the transformed
// constraint ψ_N, and check classical first-order satisfaction with null
// treated as an ordinary constant. It exists as an independently derived
// oracle for the direct evaluator in nullsem.go; the two are cross-checked
// by property tests.
//
// Predicates are identified by name and arity throughout the library (the
// paper fixes one arity per predicate, but Example 1 is loose about it), so
// the projection tags each projected predicate with its original arity to
// keep, say, R/1 and R/2 distinct after their arities change.

// ProjectedConstraint is ψ restricted to its relevant attributes, i.e. the
// predicate-atom skeleton of ψ_N (formula (4)) minus the IsNull disjuncts,
// which the evaluator applies directly.
type ProjectedConstraint struct {
	// Positions maps every predicate signature of ψ to its sorted
	// relevant positions (possibly empty: the predicate projects to
	// arity 0).
	Positions map[constraint.PredSig][]int
	Body      []term.Atom
	Head      []term.Atom
	Phi       []term.Builtin
}

// projName is the tagged name of a projected predicate.
func projName(sig constraint.PredSig) string {
	return fmt.Sprintf("%s#%d", sig.Name, sig.Arity)
}

// ProjectConstraint computes the projected skeleton of ψ_N.
func ProjectConstraint(ic *constraint.IC) ProjectedConstraint {
	rel := ic.RelevantAttrs()
	positions := map[constraint.PredSig][]int{}
	record := func(a term.Atom) constraint.PredSig {
		sig := constraint.PredSig{Name: a.Pred, Arity: a.Arity()}
		if _, ok := positions[sig]; ok {
			return sig
		}
		pos := []int{}
		for _, p := range rel[a.Pred] {
			if p < a.Arity() {
				pos = append(pos, p)
			}
		}
		positions[sig] = pos
		return sig
	}
	project := func(a term.Atom) term.Atom {
		sig := record(a)
		args := make([]term.T, 0, len(positions[sig]))
		for _, p := range positions[sig] {
			args = append(args, a.Args[p])
		}
		return term.Atom{Pred: projName(sig), Args: args}
	}
	out := ProjectedConstraint{Positions: positions, Phi: ic.Phi}
	for _, a := range ic.Body {
		out.Body = append(out.Body, project(a))
	}
	for _, a := range ic.Head {
		out.Head = append(out.Head, project(a))
	}
	return out
}

// ProjectInstance materializes D^A(ψ) with arity-tagged predicate names.
func ProjectInstance(d *relational.Instance, pc ProjectedConstraint) *relational.Instance {
	out := relational.NewInstance()
	d.ForEach(func(f relational.Fact) bool {
		sig := constraint.PredSig{Name: f.Pred, Arity: len(f.Args)}
		if pos, ok := pc.Positions[sig]; ok {
			out.Insert(relational.Fact{Pred: projName(sig), Args: f.Args.Project(pos)})
		}
		return true
	})
	return out
}

// SatisfiesICOracle decides D |=_N ψ by the book: D^A(ψ) |= ψ_N with null as
// an ordinary constant.
func SatisfiesICOracle(d *relational.Instance, ic *constraint.IC) bool {
	pc := ProjectConstraint(ic)
	dA := ProjectInstance(d, pc)
	ok := true
	joinAll(dA, pc.Body, func(subst term.Subst, _ []relational.Fact) bool {
		// IsNull disjuncts: every variable surviving the projection is
		// relevant (non-relevant variables occupy dropped positions),
		// so any null binding satisfies ψ_N.
		for _, v := range subst {
			if v.IsNull() {
				return true
			}
		}
		if phiHolds(NullAware, pc.Phi, subst) {
			return true
		}
		if oracleConsequent(dA, pc, subst) {
			return true
		}
		ok = false
		return false
	})
	return ok
}

// oracleConsequent checks ∃z̄ ⋁ Q_j^A(ȳ_j, z̄_j) over the projected instance
// classically: all projected positions must match, with consistent bindings
// for repeated existential variables.
func oracleConsequent(dA *relational.Instance, pc ProjectedConstraint, subst term.Subst) bool {
	for _, a := range pc.Head {
		found := false
		dA.Scan(a.Pred, a.Arity(), relational.AtomBindings(a, subst), func(tuple relational.Tuple) bool {
			local := subst.Clone()
			if _, ok := relational.MatchAtom(tuple, a, local); ok {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// SatisfiesOracle checks a whole set via the projection-based oracle (NNCs
// are classical either way).
func SatisfiesOracle(d *relational.Instance, s *constraint.Set) bool {
	for _, ic := range s.ICs {
		if !SatisfiesICOracle(d, ic) {
			return false
		}
	}
	for _, n := range s.NNCs {
		if len(CheckNNC(d, n)) > 0 {
			return false
		}
	}
	return true
}
