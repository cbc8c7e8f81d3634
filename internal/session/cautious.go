package session

import (
	"context"
	"fmt"
	"math"
	"sort"

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
type cautiousBackend struct {
	programBackend
	// repairs is the distinct-repair count of tr's program (0 = not yet
	// counted). The first query that solves every component counts it;
	// it is dropped by every apply that changes the program's rule
	// instances (Translation.AffectedBy) and kept across passthrough
	// applies and reanchor, which leave them unchanged.
	repairs int
}

// apply drops the repair count when the delta changes the program, then
// queues the delta on the translation.
func (b *cautiousBackend) apply(eff relational.Delta) {
	if b.tr != nil && b.tr.AffectedBy(eff) {
		b.repairs = 0
	}
	b.programBackend.apply(eff)
	if b.tr == nil {
		b.repairs = 0
	}
}

// plan returns nil: standing queries are re-answered by cautious reasoning.
func (b *cautiousBackend) plan(*query.Q) (*query.BaseEval, error) { return nil, nil }

// certain answers q over the cached translation.
//
// The query rules are ground against the retained possible-set snapshot,
// and the ground program is split into its components (DESIGN §5.2).
// Stable models factorize over them, so the cautious consequences are the
// core facts plus, per component, the atoms true in all of that
// component's models: the certain answers are the answer atoms among the
// core facts and, for each component holding an answer atom, those true
// in every one of its models. Only those components are solved once the
// repair count is known. The count is the product over all components of
// the distinct pieces ModelReader.Delta reads off their models — each
// edit is decided by one atom, so different components' pieces touch
// disjoint facts — and the first query of a translation computes it in
// the same pass by solving every component. A boolean query stops its
// component at the first model lacking the answer atom: that model's
// repair falsifies q, so the answer is no (ShortCircuited, NumRepairs 1),
// and each other component then needs one model, or the cached count, to
// show that the program has a stable model at all.
func (b *cautiousBackend) certain(ctx context.Context, q *query.Q) (Answer, error) {
	tr, err := b.translation()
	if err != nil {
		return Answer{}, err
	}
	gp, err := tr.GroundWithQuery(q)
	if err != nil {
		return Answer{}, err
	}
	cs := stable.Decompose(gp)
	answer := tr.AnswerPred()
	isAnswer := func(a int) bool { return gp.Atoms[a].Pred == answer }

	var certain []int
	for _, a := range cs.Core() {
		if isAnswer(a) {
			certain = append(certain, a)
		}
	}
	// order lists the components holding answer atoms first, and held[i]
	// the answer atoms of order[i] true in every model seen so far; the
	// other components follow only while the repair count is unknown.
	var order []int
	var held [][]int
	for c := 0; c < cs.Len(); c++ {
		var as []int
		for _, a := range cs.Atoms(c) {
			if isAnswer(a) {
				as = append(as, a)
			}
		}
		if as != nil {
			order = append(order, c)
			held = append(held, as)
		}
	}
	counting := b.repairs == 0
	if counting {
		for c, j := 0, 0; c < cs.Len(); c++ {
			if j < len(held) && order[j] == c {
				j++
				continue
			}
			order = append(order, c)
		}
	}

	boolean := q.IsBoolean()
	// A boolean answer atom in no component is a core fact (yes) or
	// absent from the program (no in every repair).
	short := boolean && len(certain) == 0 && len(held) == 0
	var (
		reader *repairprog.ModelReader
		pieces *relational.DeltaSet // distinct pieces of the current component
		first  stable.Model         // its first model
		at     = -1                 // its index in order
		n      = 1                  // repair count over the finished components
	)
	ok, err := cs.Solve(ctx, b.s.opts.Stable, order, func(c int, m stable.Model) bool {
		if at < 0 || order[at] != c {
			n = mulCount(n, pieces)
			at, pieces, first = at+1, nil, m
		} else if counting && !short {
			if reader == nil {
				reader = tr.NewModelReader(gp)
			}
			if pieces == nil {
				pieces = relational.NewDeltaSet()
				pieces.Add(reader.Delta(first))
			}
			pieces.Add(reader.Delta(m))
		}
		if at < len(held) {
			kept := held[at][:0]
			for _, a := range held[at] {
				if m.Contains(a) {
					kept = append(kept, a)
				}
			}
			held[at] = kept
			if boolean && len(kept) == 0 {
				short = true
			}
		}
		return !short
	})
	if err != nil {
		return Answer{}, err
	}
	if !ok {
		return Answer{}, fmt.Errorf("the repair program has no stable model: %w", ErrInconsistentUnrepairable)
	}
	if short {
		return Answer{NumRepairs: 1, ShortCircuited: true}, nil
	}
	if counting {
		b.repairs = mulCount(n, pieces)
	}
	ans := Answer{NumRepairs: b.repairs}
	for _, as := range held {
		certain = append(certain, as...)
	}
	if boolean {
		ans.Boolean = len(certain) > 0
		return ans, nil
	}
	for _, a := range certain {
		ans.Tuples = append(ans.Tuples, gp.Atoms[a].Args)
	}
	sort.Slice(ans.Tuples, func(i, j int) bool { return ans.Tuples[i].Compare(ans.Tuples[j]) < 0 })
	return ans, nil
}

// mulCount multiplies the repair count n by a finished component's number
// of distinct pieces (nil: one model, one piece), saturating at
// math.MaxInt.
func mulCount(n int, pieces *relational.DeltaSet) int {
	if pieces == nil {
		return n
	}
	k := pieces.Len()
	if n > math.MaxInt/k {
		return math.MaxInt
	}
	return n * k
}
