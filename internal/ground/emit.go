package ground

import (
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// extState is the grounding snapshot a Program retains so Extend can ground
// further rules against it: the canonical (sorted, frozen) possible-set
// instance, the possible/fact membership sets, the atom interner, the
// folded rules' dedup state, each atom's folded value, and the relations
// extension heads must avoid. All of it is frozen once the program is
// built; extensions layer child sets on top.
//
// facts holds the input facts only, never the folded ones: emission
// decides rule instances against it before interning their atoms, and a
// monolithic grounding folds only after its whole emission, so an
// extension that dropped instances on folded base facts would intern
// different atoms than the monolithic grounding of the same rules.
type extState struct {
	canon     *relational.Instance
	poss      *factSet
	facts     *factSet
	in        *interner
	rs        *ruleSet
	guardRels map[relational.RelKey]bool
	// val is the folded value of every atom id, input facts true; an
	// extension's val shares its parent's as a capacity-capped prefix.
	val []truth
}

// pendingRule is one simplified rule instance before interning: the
// surviving literals as facts, each part duplicate-free and in source
// literal order. A rule instance may still be dropped while its literals
// are collected, so atom ids are assigned only once it survives.
type pendingRule struct {
	head, pos, neg []relational.Fact
}

// emit instantiates rules over the canonical possible set, in source-rule
// order, interning each surviving instance's atoms into st.in as the join
// finds it, and returns the instances in that order for settle to fold.
func emit(st *extState, rules []logic.Rule) []Rule {
	e := &emitter{st: st, subst: term.Subst{}}
	var raw []Rule
	for _, r := range rules {
		steps, ready := relational.PlanJoin(st.canon, r.Pos, r.Builtins, nil)
		if !relational.BuiltinsHold(ready, e.subst) {
			continue
		}
		relational.Join(st.canon, steps, e.subst, func() bool {
			if pr, keep := e.simplify(r); keep {
				raw = append(raw, internRule(st.in, pr))
			}
			return true
		})
	}
	return raw
}

// emitter holds emit's substitution and literal scratch storage.
type emitter struct {
	st      *extState
	subst   term.Subst
	scratch relational.Tuple
}

// simplify builds one ground rule instance under the current substitution,
// simplifying it against the possible and fact sets: a head that is a fact
// satisfies the rule (drop it); a positive literal that is a fact is always
// true (omit it) and one that is not possible can never hold (drop the
// rule); a negated fact is false (drop the rule) and a negated non-possible
// atom is true (omit it).
func (e *emitter) simplify(r logic.Rule) (pendingRule, bool) {
	var pr pendingRule
	for _, h := range r.Head {
		e.scratch = groundAtomInto(e.scratch, h, e.subst)
		f := relational.Fact{Pred: h.Pred, Args: e.scratch}
		if e.st.facts.has(f) {
			return pendingRule{}, false
		}
		pr.head = appendUniqFact(pr.head, f)
	}
	for _, a := range r.Pos {
		e.scratch = groundAtomInto(e.scratch, a, e.subst)
		f := relational.Fact{Pred: a.Pred, Args: e.scratch}
		if e.st.facts.has(f) {
			continue
		}
		if !e.st.poss.has(f) {
			return pendingRule{}, false
		}
		pr.pos = appendUniqFact(pr.pos, f)
	}
	for _, a := range r.Neg {
		e.scratch = groundAtomInto(e.scratch, a, e.subst)
		f := relational.Fact{Pred: a.Pred, Args: e.scratch}
		if e.st.facts.has(f) {
			return pendingRule{}, false
		}
		if !e.st.poss.has(f) {
			continue
		}
		pr.neg = appendUniqFact(pr.neg, f)
	}
	return pr, true
}

// appendUniqFact appends f unless an equal fact is present, cloning its
// tuple out of the caller's scratch storage on insert.
func appendUniqFact(xs []relational.Fact, f relational.Fact) []relational.Fact {
	for _, g := range xs {
		if g.Equal(f) {
			return xs
		}
	}
	return append(xs, relational.Fact{Pred: f.Pred, Args: f.Args.Clone()})
}

// internRule interns one pending rule's atoms, returning the rule over their
// ids.
func internRule(in *interner, pr pendingRule) Rule {
	var r Rule
	for _, f := range pr.head {
		r.Head = append(r.Head, in.intern(f))
	}
	for _, f := range pr.pos {
		r.Pos = append(r.Pos, in.intern(f))
	}
	for _, f := range pr.neg {
		r.Neg = append(r.Neg, in.intern(f))
	}
	return r
}
