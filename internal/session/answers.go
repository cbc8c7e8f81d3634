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
// full joins: a boolean verdict stops at the first falsifying repair, and
// tuples are intersected by BaseEval.CertainOn. The diagnostics are those
// of the enumeration that filled the cache, never a short-circuit.
func (s *Session) cachedCertain(ctx context.Context, be *query.BaseEval, boolean bool) (Answer, error) {
	if err := s.ensureRepairs(ctx); err != nil {
		return Answer{}, err
	}
	if len(s.repairs) == 0 {
		return Answer{}, ErrInconsistentUnrepairable
	}
	ans := Answer{NumRepairs: len(s.repairs), StatesExplored: s.searchStats.StatesExplored}
	if !boolean {
		ans.Tuples = be.CertainOn(s.repairs)
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
