package ground

import (
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// extState is the grounding snapshot a Program retains so Extend can ground
// further rules against it: the canonical (sorted, frozen) possible-set
// instance, the possible/fact membership sets, the atom interner and rule
// dedup state, and the relations extension heads must avoid. All of it is
// frozen once the program is built; extensions layer child sets on top.
type extState struct {
	canon     *relational.Instance
	poss      *factSet
	facts     *factSet
	in        *interner
	rs        *ruleSet
	guardRels map[relational.RelKey]bool
}

// pendingRule is one simplified rule instance before interning: the
// surviving literals as facts, each part duplicate-free and in source
// literal order. A rule instance may still be dropped while its literals
// are collected, so atom ids are assigned only once it survives.
type pendingRule struct {
	head, pos, neg []relational.Fact
}

// emit instantiates rules over the canonical possible set, in source-rule
// order, and merges each surviving instance into st.rs (dedup) and st.in
// (atom ids) as the join finds it.
func emit(st *extState, rules []logic.Rule) {
	e := &emitter{st: st, subst: term.Subst{}}
	for _, r := range rules {
		steps, ready := relational.PlanJoin(st.canon, r.Pos, r.Builtins, nil)
		if !relational.BuiltinsHold(ready, e.subst) {
			continue
		}
		relational.Join(st.canon, steps, e.subst, func() bool {
			if pr, keep := e.simplify(r); keep {
				merge(st, pr)
			}
			return true
		})
	}
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

// merge interns one pending rule's atoms and adds it to the rule set unless
// an equal rule was already emitted.
func merge(st *extState, pr pendingRule) {
	var r Rule
	for _, f := range pr.head {
		r.Head = append(r.Head, st.in.intern(f))
	}
	for _, f := range pr.pos {
		r.Pos = append(r.Pos, st.in.intern(f))
	}
	for _, f := range pr.neg {
		r.Neg = append(r.Neg, st.in.intern(f))
	}
	st.rs.add(r)
}
