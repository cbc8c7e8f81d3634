package nullsem

// This file implements the Δ-seeded (semi-naive) side of constraint
// checking: given an instance d that differs from a *satisfying* parent by a
// known delta, every violation of d must involve the delta — either a
// changed fact occurs in the violating antecedent, or the changed fact was
// the consequent witness the assignment just lost. So instead of re-joining
// the whole constraint body over the whole instance, the incremental probes
// instantiate only the constraint occurrences whose literals unify with a
// changed fact: each candidate join is anchored on a Δ-atom (an added fact
// bound to one body atom, or the body bindings a removed fact imposed as a
// witness) and completed against the indexed store. Candidates are then
// confirmed with the exact scratch predicate (violationAt), so the
// incremental verdicts are identical to the scratch ones by construction.
//
// Soundness of the seeding, per delta direction:
//
//   - an added fact g can only create violations whose antecedent support
//     contains g (assignments supported entirely by the parent were already
//     checked there, and additions never remove witnesses);
//   - a removed fact f can only create violations among assignments that
//     held in the parent *because f witnessed their consequent* — so the
//     candidate assignments are exactly the body joins compatible with the
//     bindings f imposes through some head atom (witnessSeed);
//   - exemption (Definition 4's relevant-null test), ϕ, and the FullMatch
//     forced-violation verdict depend only on the assignment itself, so they
//     cannot flip without the body join changing.
//
// The contract is checked by the randomized differential suite in
// incremental_test.go, which pins every Δ-seeded result against the scratch
// evaluators over random instances, deltas, and all six semantics.

import (
	"repro/internal/constraint"
	"repro/internal/relational"
	"repro/internal/term"
)

// ICChecker caches the per-constraint analysis for repeated scratch and
// Δ-seeded probes of a single IC under a fixed semantics. The repair search
// builds one checker per IC per enumeration, so the per-probe cost is the
// join work alone, not the constraint analysis.
//
// A checker is immutable after construction and safe for concurrent use.
type ICChecker struct {
	ic    *constraint.IC
	sem   Semantics
	c     *icContext
	preds map[string]bool
}

// NewICChecker analyses ic once for repeated probing under sem.
func NewICChecker(ic *constraint.IC, sem Semantics) *ICChecker {
	preds := map[string]bool{}
	for _, a := range ic.Body {
		preds[a.Pred] = true
	}
	for _, a := range ic.Head {
		preds[a.Pred] = true
	}
	return &ICChecker{ic: ic, sem: sem, c: newICContext(ic), preds: preds}
}

// SharesPred reports whether the constraint mentions the predicate in its
// body or head. A constraint that shares no predicate with a delta cannot
// change its satisfaction status across that delta.
func (k *ICChecker) SharesPred(pred string) bool { return k.preds[pred] }

// Violations returns the complete violation list of the IC on d, from
// scratch, in deterministic (body-join) order — CheckIC with the cached
// analysis.
func (k *ICChecker) Violations(d *relational.Instance) []Violation {
	return k.c.violations(d, k.sem)
}

// FirstFrom returns a deterministic first violation of the IC on d, probing
// only Δ-seeded candidates. Contract: the pre-delta parent instance
// (d − delta.Added + delta.Removed) satisfies the IC; then d violates the IC
// iff FirstFrom finds a violation.
func (k *ICChecker) FirstFrom(d *relational.Instance, delta relational.Delta) (Violation, bool) {
	var out Violation
	found := false
	k.seeded(d, delta, func(subst term.Subst, support []relational.Fact) bool {
		if v, bad := violationAt(k.c, d, k.sem, subst, support); bad {
			out, found = v, true
			return false
		}
		return true
	})
	return out, found
}

// ViolationsFrom returns the complete violation list of the IC on d under
// the FirstFrom contract (the pre-delta parent satisfied the IC), probing
// only Δ-seeded candidates and deduplicating assignments found through
// multiple anchors. Survivor order is the deterministic seeding order.
func (k *ICChecker) ViolationsFrom(d *relational.Instance, delta relational.Delta) []Violation {
	var out []Violation
	var seen map[string]bool
	k.seeded(d, delta, func(subst term.Subst, support []relational.Fact) bool {
		key := k.c.substKey(subst)
		if seen[key] {
			return true
		}
		if seen == nil {
			seen = map[string]bool{}
		}
		seen[key] = true
		if v, bad := violationAt(k.c, d, k.sem, subst, support); bad {
			out = append(out, v)
		}
		return true
	})
	return out
}

// Update advances a *complete* violation list across a delta: given prev =
// the full violations of the IC on the pre-delta parent (in some order), it
// returns the full violations on d, preserving the relative order of
// surviving entries and appending newly created ones in deterministic
// seeding order. Unlike FirstFrom/ViolationsFrom, Update does not require
// the parent to satisfy the IC — prev must just be complete. This is what
// the repair search threads through the work-list: each node's list is its
// parent's list advanced by the node's one-fact fix.
func (k *ICChecker) Update(d *relational.Instance, prev []Violation, delta relational.Delta) []Violation {
	if len(prev) == 0 {
		return k.ViolationsFrom(d, delta)
	}
	out := make([]Violation, 0, len(prev))
	var seen map[string]bool
	for i := range prev {
		v := &prev[i]
		if supportHit(v.Support, delta.Removed) {
			continue // the antecedent match itself is gone
		}
		if len(delta.Added) > 0 && k.addedWitness(v.Subst, delta.Added) {
			// A forced FullMatch violation stays violated no matter the
			// witnesses; otherwise the parent had no witness, so d has one
			// iff an added fact matches.
			if _, forcedViolation := k.c.exempt(k.sem, v.Subst, v.Support); !forcedViolation {
				continue
			}
		}
		out = append(out, *v)
		if seen == nil {
			seen = make(map[string]bool, len(prev))
		}
		seen[k.c.substKey(v.Subst)] = true
	}
	k.seeded(d, delta, func(subst term.Subst, support []relational.Fact) bool {
		key := k.c.substKey(subst)
		if seen[key] {
			return true
		}
		if seen == nil {
			seen = map[string]bool{}
		}
		seen[key] = true
		if v, bad := violationAt(k.c, d, k.sem, subst, support); bad {
			out = append(out, v)
		}
		return true
	})
	return out
}

// supportHit reports whether any removed fact occurs in the support list.
func supportHit(support, removed []relational.Fact) bool {
	for _, f := range support {
		for _, r := range removed {
			if f.Equal(r) {
				return true
			}
		}
	}
	return false
}

// addedWitness reports whether some added fact witnesses the consequent
// under the assignment.
func (k *ICChecker) addedWitness(subst term.Subst, added []relational.Fact) bool {
	for _, g := range added {
		for _, a := range k.ic.Head {
			if a.Pred != g.Pred || a.Arity() != len(g.Args) {
				continue
			}
			if k.c.witnessMatches(k.sem, a, g.Args, subst) {
				return true
			}
		}
	}
	return false
}

// seeded enumerates the candidate violating assignments of d that involve
// the delta: full body joins anchored on each added fact, and full body
// joins seeded with the bindings each removed fact imposed as a consequent
// witness. Candidates may repeat across anchors and include non-violations;
// callers deduplicate (by substKey) and confirm through violationAt. The
// enumeration order is deterministic. yield returns false to stop early.
func (k *ICChecker) seeded(d *relational.Instance, delta relational.Delta, yield func(term.Subst, []relational.Fact) bool) {
	body := k.ic.Body
	for i := range delta.Added {
		g := &delta.Added[i]
		for j := range body {
			if body[j].Pred != g.Pred || body[j].Arity() != len(g.Args) {
				continue
			}
			subst := term.Subst{}
			if _, ok := relational.MatchAtom(g.Args, body[j], subst); !ok {
				continue
			}
			support := make([]relational.Fact, len(body))
			support[j] = *g
			if !joinBody(d, body, subst, support, j, 0, yield) {
				return
			}
		}
	}
	for i := range delta.Removed {
		f := &delta.Removed[i]
		for _, a := range k.ic.Head {
			if a.Pred != f.Pred || a.Arity() != len(f.Args) {
				continue
			}
			subst, ok := k.witnessSeed(a, f.Args)
			if !ok {
				continue
			}
			support := make([]relational.Fact, len(body))
			if !joinBody(d, body, subst, support, -1, 0, yield) {
				return
			}
		}
	}
}

// witnessSeed derives the body-variable bindings a removed fact imposed as a
// potential consequent witness through head atom a. ok = false means the
// fact can not have witnessed any assignment through a (so nothing needs
// seeding). Positions the semantics does not tie to a single body value
// (PartialMatch's null-tolerant comparison, existential variables) are left
// unbound — an over-approximation the violationAt confirmation makes exact.
func (k *ICChecker) witnessSeed(a term.Atom, tuple relational.Tuple) (term.Subst, bool) {
	subst := term.Subst{}
	for i, t := range a.Args {
		switch {
		case !t.IsVar():
			// Constraints never mention null (form (1)), so a constant
			// position demands plain equality under every semantics.
			if !tuple[i].Eq(t.Const) {
				return nil, false
			}
		case k.c.body[t.Var]:
			switch k.sem {
			case NullAware, ClassicFO, AllExempt:
				// Plain Eq witness comparison: the witness value *is* the
				// assignment's value.
			case SimpleMatch, FullMatch, PartialMatch:
				// Non-null equality: a null witness value matches nothing
				// (Eq3 never True3 against null; PartialMatch's null want
				// demands a non-null witness).
				if tuple[i].IsNull() {
					return nil, false
				}
				if k.sem == PartialMatch {
					// σ(v) is either tuple[i] or null; leave v unbound.
					continue
				}
			}
			if v, bound := subst[t.Var]; bound {
				if !tuple[i].Eq(v) {
					return nil, false
				}
			} else {
				subst[t.Var] = tuple[i]
			}
		default:
			// Existential position: imposes no body binding.
		}
	}
	return subst, true
}

// SetChecker caches per-IC checkers for a whole constraint set, for repeated
// Δ-anchored consistency checks against one semantics (the repair search's
// minimality certificates re-check many sibling instances of one consistent
// leaf).
type SetChecker struct {
	set *constraint.Set
	sem Semantics
	ics []*ICChecker
}

// NewSetChecker analyses every IC of the set once.
func NewSetChecker(set *constraint.Set, sem Semantics) *SetChecker {
	sc := &SetChecker{set: set, sem: sem, ics: make([]*ICChecker, len(set.ICs))}
	for i, ic := range set.ICs {
		sc.ics[i] = NewICChecker(ic, sem)
	}
	return sc
}

// SatisfiesFrom reports d |= set under the checker's semantics, given that
// the pre-delta parent (d − delta.Added + delta.Removed) satisfies the set.
// Constraints sharing no predicate with the delta are skipped outright; the
// rest are probed Δ-seeded. Violations found are always genuine (each
// candidate is confirmed on d), so a false result is trustworthy even if the
// parent contract is broken; only a true result relies on it.
func (sc *SetChecker) SatisfiesFrom(d *relational.Instance, delta relational.Delta) bool {
	for _, k := range sc.ics {
		if !k.sharesAny(delta) {
			continue
		}
		if _, found := k.FirstFrom(d, delta); found {
			return false
		}
	}
	// NNC satisfaction is classical and per-fact: deletions never violate,
	// so only the added facts need the null probe (Definition 5).
	for _, n := range sc.set.NNCs {
		for i := range delta.Added {
			g := &delta.Added[i]
			if g.Pred == n.Pred && len(g.Args) == n.Arity && g.Args[n.Pos].IsNull() {
				return false
			}
		}
	}
	return true
}

func (k *ICChecker) sharesAny(delta relational.Delta) bool {
	for i := range delta.Added {
		if k.preds[delta.Added[i].Pred] {
			return true
		}
	}
	for i := range delta.Removed {
		if k.preds[delta.Removed[i].Pred] {
			return true
		}
	}
	return false
}
