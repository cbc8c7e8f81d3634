package query

import (
	"sort"

	"repro/internal/relational"
	"repro/internal/term"
)

// This file implements base-anchored per-repair query answering: evaluate q
// once on the base instance D, then compute the answer set of each repair R
// by patching the base result along Δ(D, R) instead of re-running the full
// join. The patch has three parts, each a Δ-anchored join:
//
//   - gained answers: assignments over R that use an added fact in a
//     positive literal (the join is anchored on the Δ⁺-atom and completed
//     against R's indexes), plus assignments whose blocking negated atom was
//     removed (anchored on the Δ⁻-atom through the negated literal);
//   - lost candidates: base answers that *might* have lost support — their
//     witnessing assignments used a removed fact positively (anchored over
//     D) or are now blocked by an added fact through a negated literal;
//   - confirmation: each lost candidate is re-probed on R with the head
//     variables bound (a highly selective join), and dropped only if no
//     disjunct supports it anymore.
//
// Every surviving base answer keeps a witness untouched by Δ, every gained
// answer is verified on R, and every dropped answer was exhaustively
// re-probed, so the patched result is byte-identical to Eval(R) — the
// randomized differential suite in delta_test.go pins this over enumerated
// repair sets. The cost per repair is O(|Δ| · anchored-join) plus one bound
// probe per candidate, instead of a full evaluation.

// BaseEval is a query evaluated once on a base instance, ready to be patched
// onto instances that differ from the base by small deltas (the repairs of
// the base, in CQA). It implements the package's default semantics (null as
// an ordinary constant, no answer filtering) — exactly Eval.
//
// A BaseEval is immutable after construction and safe for concurrent use as
// long as the base instance is not mutated (distinct overlay views of a
// frozen engine are fine; see relational.Instance).
type BaseEval struct {
	base      *relational.Instance
	q         *Q
	tuples    []relational.Tuple          // sorted base answers
	tupleKeys []string                    // keys aligned with tuples
	keys      map[string]relational.Tuple // base answers by tuple key
}

// NewBaseEval validates q and evaluates it on the base instance.
func NewBaseEval(base *relational.Instance, q *Q) (*BaseEval, error) {
	tuples, err := Eval(base, q)
	if err != nil {
		return nil, err
	}
	be := &BaseEval{
		base:      base,
		q:         q,
		tuples:    tuples,
		tupleKeys: make([]string, len(tuples)),
		keys:      make(map[string]relational.Tuple, len(tuples)),
	}
	for i, t := range tuples {
		k := t.Key()
		be.tupleKeys[i] = k
		be.keys[k] = t
	}
	return be, nil
}

// BaseAnswers returns the base instance's answers (shared; callers must not
// mutate).
func (be *BaseEval) BaseAnswers() []relational.Tuple { return be.tuples }

// EvalOn returns the answers of the query on r, computed by patching the
// base answers along Δ(base, r). The result equals Eval(r, q) — same
// tuples, same order. When r is an overlay view of the base's engine (a
// repair-search leaf), the delta itself costs O(|Δ|), not O(|r|).
func (be *BaseEval) EvalOn(r *relational.Instance) []relational.Tuple {
	return be.EvalDelta(r, relational.Diff(be.base, r))
}

// DiffOn computes the patch of the base answers for r without building the
// merged answer list: fresh holds the answers on r that are not base answers
// (keyed by tuple key), lost the keys of base answers that do not survive on
// r. ans(r) = (base answers − lost) ∪ fresh. Callers that only need how r's
// answers differ from the base — certain-answer intersection across a repair
// set, for one — avoid the O(|base answers|) merge EvalDelta pays per call.
func (be *BaseEval) DiffOn(r *relational.Instance) (fresh map[string]relational.Tuple, lost map[string]bool) {
	return be.DiffDelta(r, relational.Diff(be.base, r))
}

// DiffDelta is DiffOn with a precomputed delta = Δ(base, r). Either result
// map may be nil when empty.
func (be *BaseEval) DiffDelta(r *relational.Instance, delta relational.Delta) (fresh map[string]relational.Tuple, lost map[string]bool) {
	if delta.Size() == 0 {
		return nil, nil
	}
	gained := map[string]relational.Tuple{}
	lost = map[string]bool{}
	be.patch(r, delta, gained, lost)
	for k, t := range gained {
		if _, inBase := be.keys[k]; !inBase {
			if fresh == nil {
				fresh = map[string]relational.Tuple{}
			}
			fresh[k] = t
		}
	}
	return fresh, lost
}

// EvalDelta is EvalOn with a precomputed delta = Δ(base, r): Removed holds
// base facts absent from r, Added the facts of r absent from the base.
func (be *BaseEval) EvalDelta(r *relational.Instance, delta relational.Delta) []relational.Tuple {
	if delta.Size() == 0 {
		return append([]relational.Tuple(nil), be.tuples...)
	}
	fresh, lost := be.DiffDelta(r, delta)
	return be.merge(fresh, lost)
}

// CertainOn returns the answers the query has on every instance of rs,
// sorted: ∩_r Eval(r, q), nil when rs is empty. Each answer set is
// (base answers − lost_r) ∪ fresh_r with fresh_r disjoint from the base
// answers, so the intersection is
//
//	(base answers − ∪_r lost_r) ∪ ∩_r fresh_r
//
// and no per-instance answer list is built. A base answer that an earlier
// instance already lost is never re-probed, and once ∩ fresh is empty the
// gained answers are no longer collected: the head-bound probe alone
// decides whether a candidate is lost.
func (be *BaseEval) CertainOn(rs []*relational.Instance) []relational.Tuple {
	if len(rs) == 0 {
		return nil
	}
	lost := map[string]bool{}
	var fresh map[string]relational.Tuple // ∩ fresh so far; nil is empty
	for i, r := range rs {
		var gained map[string]relational.Tuple
		if i == 0 || len(fresh) > 0 {
			gained = map[string]relational.Tuple{}
		}
		be.patch(r, relational.Diff(be.base, r), gained, lost)
		if i == 0 {
			fresh = gained
		}
		for k := range fresh {
			_, inBase := be.keys[k]
			if _, g := gained[k]; inBase || !g {
				delete(fresh, k)
			}
		}
	}
	return be.merge(fresh, lost)
}

// patch collects into gained, unless it is nil, the answers r gains over
// the base (base answers included), and marks in lost the base answers r
// loses, for delta = Δ(base, r). A base answer lost already is not
// re-probed, and neither is one a gained witness re-supports; with gained
// nil the head-bound probe decides every candidate.
func (be *BaseEval) patch(r *relational.Instance, delta relational.Delta, gained map[string]relational.Tuple, lost map[string]bool) {
	cands := map[string]relational.Tuple{}
	for _, c := range be.q.Disjuncts {
		if gained != nil {
			be.gainedFrom(r, c, delta, gained)
		}
		be.lostCandidates(c, delta, cands)
	}
	for k, t := range cands {
		if _, inBase := be.keys[k]; !inBase || lost[k] {
			continue // never a base answer, or lost already
		}
		if _, g := gained[k]; !g && !be.supported(r, t) {
			lost[k] = true
		}
	}
}

// merge returns (base answers − lost) ∪ fresh in Compare order, nil when
// empty. The base answers are already sorted; only the (small) fresh
// tuples need sorting, and the result is a linear merge.
func (be *BaseEval) merge(freshByKey map[string]relational.Tuple, lost map[string]bool) []relational.Tuple {
	fresh := make([]relational.Tuple, 0, len(freshByKey))
	for _, t := range freshByKey {
		fresh = append(fresh, t)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Compare(fresh[j]) < 0 })
	out := make([]relational.Tuple, 0, len(be.tuples)+len(fresh))
	fi := 0
	for ti, t := range be.tuples {
		if lost[be.tupleKeys[ti]] {
			continue
		}
		for fi < len(fresh) && fresh[fi].Compare(t) < 0 {
			out = append(out, fresh[fi])
			fi++
		}
		out = append(out, t)
	}
	out = append(out, fresh[fi:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// gainedFrom collects the head projections of assignments over r that
// involve the delta: positive joins anchored on each added fact, and joins
// seeded by a removed fact through each negated literal (the blocker whose
// disappearance enables the assignment). All conditions are re-checked over
// r, so everything collected is a genuine answer on r.
func (be *BaseEval) gainedFrom(r *relational.Instance, c Conj, delta relational.Delta, gained map[string]relational.Tuple) {
	for li, l := range c.Lits {
		facts := delta.Added
		if l.Neg {
			facts = delta.Removed
		}
		for fi := range facts {
			be.anchored(r, c, li, facts[fi], gained)
		}
	}
}

// lostCandidates collects the head projections of base assignments the delta
// can invalidate: joins over the base anchored on each removed fact through
// a positive literal, and joins seeded by an added fact through each negated
// literal (the new blocker). Conditions are checked over the base, so every
// candidate is a genuine base answer; whether it survives on r is decided by
// the supported re-probe.
func (be *BaseEval) lostCandidates(c Conj, delta relational.Delta, cands map[string]relational.Tuple) {
	for li, l := range c.Lits {
		facts := delta.Removed
		if l.Neg {
			facts = delta.Added
		}
		for fi := range facts {
			be.anchored(be.base, c, li, facts[fi], cands)
		}
	}
}

// anchored collects the head projections of the assignments over d that
// instantiate literal li to the delta fact f and whose negated literals
// hold on d.
func (be *BaseEval) anchored(d *relational.Instance, c Conj, li int, f relational.Fact, into map[string]relational.Tuple) {
	subst := term.Subst{}
	ForEachAnchored(d, c, li, f, subst, func() bool {
		if negsHold(d, c, subst) {
			t := projectHead(be.q.Head, subst)
			into[t.Key()] = t
		}
		return true
	})
}

// supported reports whether t is still an answer on r: some disjunct admits
// an assignment extending the head binding. The head variables make the join
// highly selective, so the probe cost tracks the matching tuples.
func (be *BaseEval) supported(r *relational.Instance, t relational.Tuple) bool {
	for _, c := range be.q.Disjuncts {
		found := false
		subst := term.Subst{}
		ForEachBound(r, c, be.q.Head, t, subst, func() bool {
			found = negsHold(r, c, subst)
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
