package direct

import (
	"context"
	"slices"

	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/term"
)

// reach accumulates what the anchored joins of one Patch learned about a
// tuple.
type reach struct {
	tuple relational.Tuple
	// ws are the live witnesses of its new-instance anchored assignments;
	// free records that one of them holds in every repair.
	ws   []*witness
	free bool
	// onCur reports that an assignment on the new instance reached it, not
	// only one on the pre-apply instance.
	onCur bool
}

// Patch moves a standing query's certain answers across one effective
// delta eff, after Update has advanced the classification over it. cur is
// the instance after the delta, pre the instance before it (nil when eff
// removes nothing), and answers the sorted certain answers on pre; a
// boolean query passes nil or the one empty tuple. Patch returns the next
// list — answers itself when nothing changed, else a fresh list, so that
// answers is never written — together with the tuples it gained and lost,
// both sorted.
//
// A tuple's status can change only if one of its assignments puts a
// literal on an anchor. On cur the anchors are every fact of eff.Added
// (through any literal), every fact of eff.Removed (through a negated
// literal), and every fact of an FD key group a delta fact falls in
// (through any literal: the group's class set may have changed, and with
// it every witness and covering that names the group). On pre they are the
// facts of eff.Removed through a positive literal. Any other assignment is
// an assignment on both instances with the same witness, over groups whose
// classes did not move. A reached tuple is certain if the witnesses of its
// anchored assignments on cur already cover; it stays out if only pre
// reached it and it was not certain, since its witnesses on cur are then a
// subset of those on pre; otherwise one head-bound probe rebuilds all of
// its witnesses on cur and decides it.
func (e *Engine) Patch(ctx context.Context, pre, cur *relational.Instance, q *query.Q, eff relational.Delta, answers []relational.Tuple) (next, added, removed []relational.Tuple, err error) {
	ev := e.newEvaluator(ctx, cur)
	reached := map[string]*reach{}
	subst := term.Subst{}
	at := func() *reach {
		k := ev.headKey(q.Head, subst)
		r := reached[string(k)]
		if r == nil {
			r = &reach{tuple: projectHead(q.Head, subst)}
			reached[string(k)] = r
		}
		return r
	}
	// tick keeps the first cancellation: the anchored joins go on being
	// called after one of them stopped.
	tick := func() bool {
		if err == nil {
			err = ev.tick()
		}
		return err == nil
	}
	anchors := e.anchors(cur, eff)
	for _, c := range q.Disjuncts {
		onCur := func() bool {
			if !tick() {
				return false
			}
			r := at()
			r.onCur = true
			if r.free {
				return true
			}
			if w, alive := ev.buildWitness(c, subst); alive {
				if w.free() {
					r.free, r.ws = true, nil
				} else {
					r.ws = append(r.ws, w)
				}
			}
			return true
		}
		onPre := func() bool {
			if !tick() {
				return false
			}
			at()
			return true
		}
		for li, l := range c.Lits {
			for _, f := range anchors {
				query.ForEachAnchored(cur, c, li, f, subst, onCur)
			}
			for _, f := range eff.Removed {
				if l.Neg {
					query.ForEachAnchored(cur, c, li, f, subst, onCur)
				} else {
					query.ForEachAnchored(pre, c, li, f, subst, onPre)
				}
			}
			if err != nil {
				return answers, nil, nil, err
			}
		}
	}
	e.stats.TuplesReached += len(reached)

	for _, r := range reached {
		_, was := slices.BinarySearchFunc(answers, r.tuple, relational.Tuple.Compare)
		now := r.free
		if !now && len(r.ws) > 0 {
			if now, err = ev.decide(r.ws); err != nil {
				return answers, nil, nil, err
			}
		}
		if !now && (r.onCur || was) {
			if now, err = ev.probe(q, r.tuple); err != nil {
				return answers, nil, nil, err
			}
		}
		switch {
		case now && !was:
			added = append(added, r.tuple)
		case was && !now:
			removed = append(removed, r.tuple)
		}
	}
	slices.SortFunc(added, relational.Tuple.Compare)
	slices.SortFunc(removed, relational.Tuple.Compare)
	return splice(answers, added, removed), added, removed, nil
}

// anchors lists the facts of cur that anchor an assignment through any
// literal: the added facts, and every non-exempt fact of an FD key group a
// delta fact falls in, each once.
func (e *Engine) anchors(cur *relational.Instance, eff relational.Delta) []relational.Fact {
	out := append([]relational.Fact(nil), eff.Added...)
	seen := map[string]bool{}
	for _, f := range eff.Added {
		seen[f.Key()] = true
	}
	type groupKey struct {
		rk relational.RelKey
		gk string
	}
	groups := map[groupKey]bool{}
	for _, f := range eff.Facts() {
		rk := relational.RelKey{Pred: f.Pred, Arity: len(f.Args)}
		fr := e.fds[rk]
		if fr == nil {
			continue
		}
		if exempt(fr.fd, f.Args) {
			continue
		}
		var buf [keyBuf]byte
		gk, _ := groupClass(fr.fd, f.Args, buf[:0])
		k := groupKey{rk, string(gk)}
		if groups[k] {
			continue
		}
		groups[k] = true
		bs := make([]relational.Binding, len(fr.fd.KeyPos))
		for i, p := range fr.fd.KeyPos {
			bs[i] = relational.Binding{Pos: p, Val: f.Args[p]}
		}
		cur.Scan(f.Pred, len(f.Args), bs, func(t relational.Tuple) bool {
			if exempt(fr.fd, t) {
				return true
			}
			g := relational.Fact{Pred: f.Pred, Args: t}
			if k := g.Key(); !seen[k] {
				seen[k] = true
				out = append(out, g)
			}
			return true
		})
	}
	return out
}

// probe decides t on the evaluator's instance from scratch: every
// assignment of every disjunct that projects to t, its witness rebuilt
// against the current classification, then covers. A free witness ends the
// probe early.
func (ev *evaluator) probe(q *query.Q, t relational.Tuple) (bool, error) {
	ev.e.stats.Probes++
	var (
		ws   []*witness
		free bool
		err  error
	)
	subst := term.Subst{}
	for _, c := range q.Disjuncts {
		query.ForEachBound(ev.d, c, q.Head, t, subst, func() bool {
			if err = ev.tick(); err != nil {
				return false
			}
			w, alive := ev.buildWitness(c, subst)
			if !alive {
				return true
			}
			if w.free() {
				free = true
				return false
			}
			ws = append(ws, w)
			return true
		})
		if err != nil || free {
			return free, err
		}
	}
	return ev.decide(ws)
}

// splice returns ts with a sorted gain added and a sorted loss (a subset
// of ts) removed: ts itself when there is no edit, else a fresh list that
// copies the runs between edits, each edit found by binary search. ts is
// never written, so a list handed out earlier stays intact.
func splice(ts, added, removed []relational.Tuple) []relational.Tuple {
	if len(added)+len(removed) == 0 {
		return ts
	}
	out := make([]relational.Tuple, 0, len(ts)+len(added)-len(removed))
	for len(added) > 0 || len(removed) > 0 {
		gain := len(removed) == 0 || len(added) > 0 && added[0].Compare(removed[0]) < 0
		var t relational.Tuple
		if gain {
			t, added = added[0], added[1:]
		} else {
			t, removed = removed[0], removed[1:]
		}
		i, found := slices.BinarySearchFunc(ts, t, relational.Tuple.Compare)
		out = append(out, ts[:i]...)
		ts = ts[i:]
		switch {
		case gain:
			out = append(out, t)
		case found:
			ts = ts[1:]
		}
	}
	return append(out, ts...)
}
