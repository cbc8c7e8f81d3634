package session

import (
	"context"

	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
)

// searchBackend implements EngineSearch: repairs come from the
// violation-driven search of internal/repair, seeded from the session's
// maintained violation lists, so even a cold enumeration never re-checks a
// constraint over the whole instance. It owns no state of its own.
type searchBackend struct{ s *Session }

func (b *searchBackend) apply(relational.Delta) {}

func (b *searchBackend) reanchor() {}

// enumerate streams the seeded search through the online ≤_D antichain and
// caches its results.
func (b *searchBackend) enumerate(ctx context.Context) error {
	s := b.s
	ropts := s.opts.Repair
	ropts.Seed = s.seed()
	cur := s.head.Current()
	ac := repair.NewAntichain(cur, ropts.Mode)
	stats, err := repair.EnumerateCtx(ctx, cur, s.set, ropts, func(leaf *relational.Instance) bool {
		ac.Add(leaf)
		return true
	})
	if err != nil {
		return err
	}
	repairs, deltas := ac.Results()
	s.fill(repairs, deltas, stats)
	return nil
}

func (b *searchBackend) plan(q *query.Q) (*query.BaseEval, error) {
	return query.NewBaseEval(b.s.head.Anchor(), q)
}

// certain answers from the repair cache, except for a boolean query on a
// cold session: that streams the seeded search exactly like the one-shot
// engine — leaves feed the online ≤_D antichain, each surviving candidate
// is evaluated by patching the base result along its delta, and the
// moment a falsifying leaf carries a ConfirmMinimal certificate the whole
// search is cancelled (the certain answer is already no). A completed
// stream populates the repair cache for later calls.
func (b *searchBackend) certain(ctx context.Context, q *query.Q) (Answer, error) {
	s := b.s
	cur := s.head.Current()
	// One base evaluation of q; every candidate is answered by patching
	// that result along its delta — O(|Δ|) anchored joins instead of a
	// full per-candidate evaluation.
	be, err := query.NewBaseEval(cur, q)
	if err != nil {
		return Answer{}, err
	}
	if !q.IsBoolean() || s.repairsOK {
		return s.cachedCertain(ctx, be, q.IsBoolean())
	}

	ropts := s.opts.Repair
	ropts.Seed = s.seed()
	ac := repair.NewAntichain(cur, ropts.Mode)
	holdsBy := map[*relational.Instance]bool{}
	short := false
	// A failed certificate costs up to 2^ConfirmLimit consistency checks
	// (the falsifying leaf is minimal so far, but its dominator arrives
	// later), so stop attempting after a few misses: the stream still
	// completes and the final answer is unchanged.
	confirmBudget := maxConfirmAttempts
	stats, err := repair.EnumerateCtx(ctx, cur, s.set, ropts, func(leaf *relational.Instance) bool {
		minimal, displaced := ac.Add(leaf)
		for _, m := range displaced {
			delete(holdsBy, m)
		}
		if !minimal {
			return true
		}
		holds := len(be.EvalOn(leaf)) > 0
		holdsBy[leaf] = holds
		if !holds && confirmBudget > 0 {
			confirmBudget--
			if repair.ConfirmMinimal(cur, leaf, s.set, s.opts.Repair) {
				short = true
				return false
			}
		}
		return true
	})
	if err != nil {
		return Answer{}, err
	}
	ans := Answer{StatesExplored: stats.StatesExplored}
	if short {
		ans.ShortCircuited = true
		// Exactly one repair — the confirmed counterexample — has been
		// established; report that rather than the surviving-candidate
		// count at the cancellation point.
		ans.NumRepairs = 1
		return ans, nil
	}
	if stats.Leaves == 0 {
		return Answer{}, ErrInconsistentUnrepairable
	}
	// The stream ran to completion: keep its results as the session's
	// repair cache.
	repairs, deltas := ac.Results()
	s.fill(repairs, deltas, stats)
	ans.NumRepairs = len(repairs)
	ans.Boolean = true
	for _, r := range repairs {
		if !holdsBy[r] {
			ans.Boolean = false
			break
		}
	}
	return ans, nil
}

// possible unions the answers of q across the cached repair set.
func (b *searchBackend) possible(ctx context.Context, q *query.Q) ([]relational.Tuple, error) {
	s := b.s
	if err := s.ensureRepairs(ctx); err != nil {
		return nil, err
	}
	if len(s.repairs) == 0 {
		return nil, ErrInconsistentUnrepairable
	}
	be, err := query.NewBaseEval(s.head.Current(), q)
	if err != nil {
		return nil, err
	}
	seen := map[string]relational.Tuple{}
	for _, r := range s.repairs {
		for _, t := range be.EvalOn(r) {
			seen[t.Key()] = t
		}
	}
	return sortedTuples(seen), nil
}
