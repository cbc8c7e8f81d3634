package ground

import (
	"sync"
	"sync/atomic"

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
	workers   int
}

// pendingRule is one simplified rule instance before interning: the
// surviving literals as facts, each part duplicate-free and in source
// literal order. Workers produce pendingRules; the sequential merge assigns
// atom ids.
type pendingRule struct {
	head, pos, neg []relational.Fact
}

// emit instantiates rules over the canonical possible set and merges the
// survivors into st.rs (dedup) and st.in (atom ids). With workers > 1 the
// per-rule instantiation fans out over a pool; the merge happens
// sequentially in source-rule order either way, so the emitted program is
// byte-identical at every worker count. st.canon must be frozen; each
// worker reads through its own O(|Δ|) view of it, since a single Instance
// view is not safe for concurrent use.
func emit(st *extState, rules []logic.Rule) {
	workers := st.workers
	if workers > len(rules) {
		workers = len(rules)
	}
	if workers > 1 {
		pend := make([][]pendingRule, len(rules))
		var next int32
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ew := &emitWorker{st: st, canon: st.canon.Clone(), subst: term.Subst{}}
				for {
					i := int(atomic.AddInt32(&next, 1)) - 1
					if i >= len(rules) {
						return
					}
					pend[i] = ew.emitRule(rules[i])
				}
			}()
		}
		wg.Wait()
		for _, ps := range pend {
			for _, pr := range ps {
				merge(st, pr)
			}
		}
		return
	}
	ew := &emitWorker{st: st, canon: st.canon, subst: term.Subst{}}
	for _, r := range rules {
		for _, pr := range ew.emitRule(r) {
			merge(st, pr)
		}
	}
}

// emitWorker holds one instantiation goroutine's scratch state and private
// view of the canonical possible set.
type emitWorker struct {
	st      *extState
	canon   *relational.Instance
	subst   term.Subst
	scratch relational.Tuple
}

// emitRule enumerates the rule's substitutions over the canonical possible
// set and simplifies each instance, returning the survivors in enumeration
// order.
func (w *emitWorker) emitRule(r logic.Rule) []pendingRule {
	var out []pendingRule
	steps, ready := relational.PlanJoin(w.canon, r.Pos, r.Builtins, nil)
	if !relational.BuiltinsHold(ready, w.subst) {
		return nil
	}
	relational.Join(w.canon, steps, w.subst, func() bool {
		if pr, keep := w.simplify(r); keep {
			out = append(out, pr)
		}
		return true
	})
	return out
}

// simplify builds one ground rule instance under the worker's current
// substitution, simplifying it against the possible and fact sets: a head
// that is a fact satisfies the rule (drop it); a positive literal that is a
// fact is always true (omit it) and one that is not possible can never hold
// (drop the rule); a negated fact is false (drop the rule) and a negated
// non-possible atom is true (omit it).
func (w *emitWorker) simplify(r logic.Rule) (pendingRule, bool) {
	var pr pendingRule
	for _, h := range r.Head {
		w.scratch = groundAtomInto(w.scratch, h, w.subst)
		f := relational.Fact{Pred: h.Pred, Args: w.scratch}
		if w.st.facts.has(f) {
			return pendingRule{}, false
		}
		pr.head = appendUniqFact(pr.head, f)
	}
	for _, a := range r.Pos {
		w.scratch = groundAtomInto(w.scratch, a, w.subst)
		f := relational.Fact{Pred: a.Pred, Args: w.scratch}
		if w.st.facts.has(f) {
			continue
		}
		if !w.st.poss.has(f) {
			return pendingRule{}, false
		}
		pr.pos = appendUniqFact(pr.pos, f)
	}
	for _, a := range r.Neg {
		w.scratch = groundAtomInto(w.scratch, a, w.subst)
		f := relational.Fact{Pred: a.Pred, Args: w.scratch}
		if w.st.facts.has(f) {
			return pendingRule{}, false
		}
		if !w.st.poss.has(f) {
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
