package session

import (
	"context"
	"fmt"

	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/stable"
)

// cautiousBackend implements EngineProgramCautious: cautious reasoning
// over the stable models of Π(D, IC) ∪ Π(q) on the pruned translation and
// its base grounding, with no repair ever materialized for an answer. The
// embedded programBackend keeps the translation coherent and supplies
// enumerate (Repairs) and possible.
type cautiousBackend struct{ programBackend }

// plan returns nil: standing queries are re-answered by cautious reasoning.
func (b *cautiousBackend) plan(*query.Q) (*query.BaseEval, error) { return nil, nil }

// certain answers q over the cached translation. A query mentioning a
// passthrough relation that drifted since the translation was built
// rebuilds the translation first (see programBackend.trDirty).
//
// The query rules are ground against the retained possible-set snapshot
// (no re-grounding, no Facts/Rules copy), and the stable models of the
// extended program drive the cautious intersection: the certain answers
// are the running intersection of each model's answer atoms. A boolean
// query short-circuits the moment a model lacks the answer atom — that
// model witnesses a repair falsifying the query, so the certain answer is
// already no and the enumeration is cancelled. Non-boolean queries
// enumerate fully: NumRepairs (the distinct induced repairs) is part of
// the cross-engine differential contract.
func (b *cautiousBackend) certain(ctx context.Context, q *query.Q) (Answer, error) {
	if len(b.trDirty) > 0 {
		for _, name := range q.Preds() {
			if b.trDirty[name] {
				b.tr, b.trDirty = nil, nil
				break
			}
		}
	}
	tr, err := b.translation()
	if err != nil {
		return Answer{}, err
	}
	gp, err := tr.GroundWithQuery(q)
	if err != nil {
		return Answer{}, err
	}

	boolean := q.IsBoolean()
	emptyKey := relational.Tuple{}.Key()
	// The distinct-repair count (part of the cross-engine contract) needs
	// no materialized instances: every repair is determined by its delta
	// against the shared base, so a fingerprint delta set dedups in
	// O(|Δ|) per model with no instance build and no key strings at all.
	reader := tr.NewModelReader(gp)
	repairSeen := relational.NewDeltaSet()
	certain := map[string]relational.Tuple{}
	first := true
	short := false
	if err := stable.EnumerateCtx(ctx, gp, b.s.opts.Stable, func(m stable.Model) bool {
		repairSeen.Add(reader.Delta(m))
		here := map[string]relational.Tuple{}
		for _, id := range m {
			f := gp.Atoms[id]
			if f.Pred == repairprog.AnswerPred {
				here[f.Args.Key()] = f.Args
			}
		}
		if first {
			first = false
			certain = here
		} else {
			for k := range certain {
				if _, ok := here[k]; !ok {
					delete(certain, k)
				}
			}
		}
		if boolean {
			if _, ok := certain[emptyKey]; !ok {
				short = true
				return false
			}
		}
		return true
	}); err != nil {
		return Answer{}, err
	}
	if first {
		return Answer{}, fmt.Errorf("the repair program has no stable model: %w", ErrInconsistentUnrepairable)
	}

	ans := Answer{NumRepairs: repairSeen.Len(), ShortCircuited: short}
	if boolean {
		_, ans.Boolean = certain[emptyKey]
		return ans, nil
	}
	ans.Tuples = sortedTuples(certain)
	return ans, nil
}
