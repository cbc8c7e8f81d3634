package session

import (
	"context"
	"sort"

	"repro/internal/query"
	"repro/internal/relational"
)

// Answer computes the consistent answers to q on the session's current
// head with the session's engine. Results are identical to a one-shot
// computation on the same instance; a warm session answers from its cached
// repair set (search/program) or cached translation and base grounding
// (program engines) instead of re-deriving them.
func (s *Session) Answer(q *query.Q) (Answer, error) {
	return s.AnswerCtx(context.Background(), q)
}

// AnswerCtx is Answer under a context. Cancellation aborts the underlying
// repair/stable enumeration and returns ctx.Err(); the session's caches are
// never left partially filled (a completed enumeration populates them, a
// cancelled one leaves them cold), so later calls are unaffected.
func (s *Session) AnswerCtx(ctx context.Context, q *query.Q) (Answer, error) {
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	return s.eng.certain(ctx, q)
}

// Possible returns the tuples answering q in at least one repair (brave
// semantics). The search engine evaluates the cached repair set; the
// program engines ride the stable-model stream, cancelling a boolean
// query at the first satisfying repair.
func (s *Session) Possible(q *query.Q) ([]relational.Tuple, error) {
	return s.PossibleCtx(context.Background(), q)
}

// PossibleCtx is Possible under a context (see AnswerCtx for the
// cancellation contract).
func (s *Session) PossibleCtx(ctx context.Context, q *query.Q) ([]relational.Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return s.eng.possible(ctx, q)
}

// cachedCertain answers from the repair cache, filling it first. be is
// evaluated once on its base and patched along each repair's delta, so k
// repairs cost one evaluation plus k·O(|Δ|) anchored joins rather than k
// full joins: a boolean verdict stops at the first falsifying repair,
// tuples are intersected by certainWith. The diagnostics are those of the
// enumeration that filled the cache, never a short-circuit.
func (s *Session) cachedCertain(ctx context.Context, be *query.BaseEval, boolean bool) (Answer, error) {
	if err := s.ensureRepairs(ctx); err != nil {
		return Answer{}, err
	}
	if len(s.repairs) == 0 {
		return Answer{}, ErrInconsistentUnrepairable
	}
	ans := Answer{NumRepairs: len(s.repairs), StatesExplored: s.searchStats.StatesExplored}
	if !boolean {
		ans.Tuples = certainWith(be, s.repairs)
		return ans, nil
	}
	ans.Boolean = true
	for _, r := range s.repairs {
		if len(be.EvalOn(r)) == 0 {
			ans.Boolean = false
			break
		}
	}
	return ans, nil
}

// certainWith is the shared intersection core. Each repair's answer set is
// (base answers − lost_r) ∪ fresh_r with fresh_r disjoint from the base
// answers, so the intersection across the repair set is
//
//	(base answers − ∪_r lost_r) ∪ ∩_r fresh_r
//
// computed from the per-repair diffs in O(Σ|diff_r|) plus one linear pass
// over the (sorted) base answers — no per-repair answer list is ever
// materialized.
func certainWith(be *query.BaseEval, repairs []*relational.Instance) []relational.Tuple {
	if len(repairs) == 0 {
		return nil
	}
	var lostAny map[string]bool
	var freshAll map[string]relational.Tuple
	for i, r := range repairs {
		fresh, lost := be.DiffOn(r)
		for k := range lost {
			if lostAny == nil {
				lostAny = map[string]bool{}
			}
			lostAny[k] = true
		}
		if i == 0 {
			freshAll = fresh
			continue
		}
		for k := range freshAll {
			if _, ok := fresh[k]; !ok {
				delete(freshAll, k)
			}
		}
	}
	base, keys := be.BaseAnswers(), be.BaseKeys()
	freshSorted := make([]relational.Tuple, 0, len(freshAll))
	for _, t := range freshAll {
		freshSorted = append(freshSorted, t)
	}
	sort.Slice(freshSorted, func(i, j int) bool { return freshSorted[i].Compare(freshSorted[j]) < 0 })
	if lostAny == nil && len(freshSorted) == 0 {
		return append([]relational.Tuple(nil), base...)
	}
	out := make([]relational.Tuple, 0, len(base)+len(freshSorted))
	fi := 0
	for ti, t := range base {
		if lostAny != nil && lostAny[keys[ti]] {
			continue
		}
		for fi < len(freshSorted) && freshSorted[fi].Compare(t) < 0 {
			out = append(out, freshSorted[fi])
			fi++
		}
		out = append(out, t)
	}
	out = append(out, freshSorted[fi:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// sortedTuples flattens a keyed tuple set into Compare order.
func sortedTuples(m map[string]relational.Tuple) []relational.Tuple {
	if len(m) == 0 {
		return nil
	}
	out := make([]relational.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
