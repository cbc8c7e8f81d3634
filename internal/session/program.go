package session

import (
	"context"

	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/stable"
)

// programBackend implements EngineProgram: repairs are read off the stable
// models of the Definition 9 repair program Π(D, IC). It owns the cached
// translation, whose base grounding repairprog.Translation maintains, and
// keeps it coherent across updates; cautiousBackend embeds it for that
// upkeep.
type programBackend struct {
	s *Session
	// pruned builds the translation over the constrained relations only
	// (passthrough relations ride the base); set for the cautious engine.
	pruned bool
	// tr is the cached translation.
	tr *repairprog.Translation
}

// apply queues the effective delta on the translation, which folds it into
// its grounding at the next read, or drops the translation when its rules
// cannot absorb the delta (repairprog.Translation.Rebase).
func (b *programBackend) apply(eff relational.Delta) {
	if b.tr != nil && !b.tr.Rebase(b.s.head.Current(), eff) {
		b.tr = nil
	}
}

func (b *programBackend) reanchor() {
	if b.tr != nil {
		b.tr.Rebase(b.s.head.Current(), relational.Delta{})
	}
}

// translation returns the cached translation, building it on first use.
func (b *programBackend) translation() (*repairprog.Translation, error) {
	if b.tr != nil {
		return b.tr, nil
	}
	s := b.s
	tr, err := repairprog.BuildWith(s.head.Current(), s.set, repairprog.BuildOptions{
		Variant:            s.opts.Variant,
		PruneUnconstrained: b.pruned,
	})
	if err != nil {
		return nil, err
	}
	tr.GroundOptions = s.opts.Ground
	b.tr = tr
	return tr, nil
}

// enumerate caches the distinct repairs induced by the stable models.
func (b *programBackend) enumerate(ctx context.Context) error {
	tr, err := b.translation()
	if err != nil {
		return err
	}
	insts, _, err := tr.StableRepairsCtx(ctx, b.s.opts.Stable)
	if err != nil {
		return err
	}
	cur := b.s.head.Current()
	deltas := make([]relational.Delta, len(insts))
	for i, inst := range insts {
		deltas[i] = relational.Diff(cur, inst)
	}
	b.s.fill(insts, deltas, repair.Stats{})
	return nil
}

func (b *programBackend) plan(q *query.Q) (*query.BaseEval, error) {
	return query.NewBaseEval(b.s.head.Anchor(), q)
}

// certain answers from the repair cache, except for a boolean query on a
// cold session: that rides the model stream and short-circuits at the
// first falsifying repair — every stable model of Π(D, IC) induces a
// repair (Theorem 4), so the certain answer is already no and the rest of
// the enumeration is cancelled.
func (b *programBackend) certain(ctx context.Context, q *query.Q) (Answer, error) {
	s := b.s
	be, err := query.NewBaseEval(s.head.Current(), q)
	if err != nil {
		return Answer{}, err
	}
	if !q.IsBoolean() || s.repairsOK {
		return s.cachedCertain(ctx, be, q.IsBoolean())
	}
	tr, err := b.translation()
	if err != nil {
		return Answer{}, err
	}
	seen := relational.NewInstanceSet()
	holds := true
	short := false
	if err := tr.StreamRepairsCtx(ctx, s.opts.Stable, func(inst *relational.Instance, delta relational.Delta, _ stable.Model) bool {
		if !seen.Add(inst) {
			return true
		}
		if len(be.EvalDelta(inst, delta)) == 0 {
			holds = false
			short = true
			return false
		}
		return true
	}); err != nil {
		return Answer{}, err
	}
	if seen.Len() == 0 {
		return Answer{}, ErrInconsistentUnrepairable
	}
	return Answer{NumRepairs: seen.Len(), Boolean: holds, ShortCircuited: short}, nil
}

// possible unions per-repair answers over the stable-model stream of the
// translation, evaluating each distinct induced repair as its first model
// arrives; a boolean query stops at the first satisfying repair.
func (b *programBackend) possible(ctx context.Context, q *query.Q) ([]relational.Tuple, error) {
	tr, err := b.translation()
	if err != nil {
		return nil, err
	}
	be, err := query.NewBaseEval(b.s.head.Current(), q)
	if err != nil {
		return nil, err
	}
	boolean := q.IsBoolean()
	seenRepair := relational.NewInstanceSet()
	seen := map[string]relational.Tuple{}
	if err := tr.StreamRepairsCtx(ctx, b.s.opts.Stable, func(inst *relational.Instance, delta relational.Delta, _ stable.Model) bool {
		if !seenRepair.Add(inst) {
			return true
		}
		for _, t := range be.EvalDelta(inst, delta) {
			seen[t.Key()] = t
		}
		return !(boolean && len(seen) > 0)
	}); err != nil {
		return nil, err
	}
	return sortedTuples(seen), nil
}
