package ground

import (
	"errors"
	"fmt"

	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// ErrNoSnapshot is returned by Extend on a program that does not carry a
// grounding snapshot (hand-built or head-cycle-shifted programs).
var ErrNoSnapshot = errors.New("ground: program carries no grounding snapshot")

// ErrExtendConflict is returned by Extend when an extension rule's head
// could change how the already-grounded base rules would instantiate, so
// the extension cannot share the base grounding.
var ErrExtendConflict = errors.New("ground: extension head collides with a base relation")

// Extend grounds additional rules against the program's retained grounding
// snapshot and returns a new program containing the base and the extension,
// without re-grounding the base: the possible set, atom table, emitted
// rules, and dedup state are shared copy-on-write. The extension rules'
// heads must derive only fresh relations — predicates with no possible atom
// in the base and no occurrence in a base rule body (query-answer
// predicates, by construction) — otherwise Extend reports
// ErrExtendConflict and the caller must fall back to a monolithic Ground.
// Extension rules may chain (one extension rule's head feeding another's
// body) and may be constraints.
//
// On a fresh grounding the returned program is byte-identical
// (Program.String, atom ids, rule order) to grounding the base program with
// the extension rules appended; on one that Update moved, it is equal to
// that grounding up to atom numbering and rule order. Only the extension's
// rules and atoms are folded; the base atoms' folded values are read from
// the snapshot, and no extension rule can change them.
// The receiver is not modified, and a base program may be extended
// concurrently from multiple goroutines between two of its Updates;
// extensions themselves are extendable in turn.
func (p *Program) Extend(rules []logic.Rule) (*Program, error) {
	st := p.ext
	if st == nil {
		return nil, ErrNoSnapshot
	}
	for i, r := range rules {
		if !r.Safe() {
			return nil, fmt.Errorf("ground: extension rule %d is unsafe: %s", i+1, r)
		}
		for _, h := range r.Head {
			rk := relational.RelKey{Pred: h.Pred, Arity: h.Arity()}
			if st.guardRels[rk] {
				return nil, fmt.Errorf("%w: %s/%d", ErrExtendConflict, h.Pred, h.Arity())
			}
		}
	}

	// Mini-fixpoint over the extension rules only: the first pass joins
	// each rule fully against the base possible set (every base atom is
	// "new" from the extension's point of view); later rounds are
	// semi-naive over the extension-derived delta, which covers extension
	// rules feeding each other.
	eg := &grounder{
		fix:   st.canon.Clone(),
		poss:  st.poss.extend(),
		facts: st.facts,
	}
	subst := term.Subst{}
	var scratch relational.Tuple
	var delta []relational.Fact
	for _, r := range rules {
		if len(r.Head) == 0 {
			continue
		}
		steps, ready := relational.PlanJoin(eg.fix, r.Pos, r.Builtins, nil)
		if !relational.BuiltinsHold(ready, subst) {
			continue
		}
		relational.Join(eg.fix, steps, subst, func() bool {
			for _, h := range r.Head {
				scratch = groundAtomInto(scratch, h, subst)
				if f, ok := eg.insertPossible(relational.Fact{Pred: h.Pred, Args: scratch}); ok {
					delta = append(delta, f)
				}
			}
			return true
		})
	}
	eg.semiNaiveRounds(rules, delta)

	// Canonicalize the extension-derived atoms over the frozen base: the
	// derived relations are fresh (guarded above), so inserting the sorted
	// derived atoms into a base overlay yields the same per-relation scan
	// order a monolithic canonicalization would.
	derived := relational.SortFacts(append([]relational.Fact(nil), eg.poss.facts...))
	canon := st.canon.Clone()
	for _, f := range derived {
		canon.Insert(f)
	}
	// A large extension may have flattened the overlay back into an owner
	// engine; re-freeze so concurrent Extends of the returned program can
	// clone it race-free.
	canon.Freeze()

	child := &extState{
		canon:     canon,
		poss:      eg.poss,
		facts:     st.facts,
		in:        st.in.extend(),
		rs:        st.rs.extend(),
		guardRels: guardRels(st.guardRels, rules, canon),
		val:       st.val[:len(st.val):len(st.val)],
	}
	ep := &Program{Facts: p.Facts[:len(p.Facts):len(p.Facts)]}
	ep.Facts = append(ep.Facts, settle(child, emit(child, rules), len(child.val))...)
	finish(ep, child, p.Rules)
	return ep, nil
}
