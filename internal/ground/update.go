package ground

import (
	"errors"
	"slices"

	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// This file moves a base grounding across a change of its input facts
// (DESIGN §8, "Maintained grounding"). The possible set follows by
// delete-and-rederive over the positive program the fixpoint uses; the
// rule instances that mention an atom whose possible or fact status
// changed are re-emitted, each anchored on its first changed literal; and
// the live instances are folded again from scratch, which is linear.

var errUpdateExtension = errors.New("ground: Update applies to a base grounding, not to an extension")

// baseState is what Update needs besides the Extend snapshot: the rules and
// options of the grounding, the level's raw instances, and bookkeeping the
// first Update builds (init).
type baseState struct {
	rules []logic.Rule
	opts  Options
	raw   *rawSet

	// lits indexes every literal of every rule by relation, for anchoring.
	lits map[relational.RelKey][]litRef
	// isFact marks the input facts by atom id; refs counts an atom's
	// occurrences in live raw instances, plus one for an input fact, and
	// live counts the atoms with a non-zero count. The others are dead:
	// interned once, in no fact and no live instance.
	isFact []bool
	refs   []int32
	live   int
	// touched is set when the running Update retracted or added a raw
	// instance.
	touched bool
}

// litRef names literal k of rule rule, counting heads, then positive, then
// negated literals.
type litRef struct {
	rule, k int
}

// literal returns literal k of r, in litRef's numbering.
func literal(r logic.Rule, k int) term.Atom {
	if k < len(r.Head) {
		return r.Head[k]
	}
	if k -= len(r.Head); k < len(r.Pos) {
		return r.Pos[k]
	}
	return r.Neg[k-len(r.Pos)]
}

func relKey(f relational.Fact) relational.RelKey {
	return relational.RelKey{Pred: f.Pred, Arity: len(f.Args)}
}

// Update moves p to the grounding of its rules over its input facts with
// removed taken out, then added put in; facts not present, or already
// present, are ignored. p must come from Ground or GroundWith, or from
// an earlier Update; an extension reports an error, and a program without
// a snapshot ErrNoSnapshot.
//
// The result equals a fresh grounding of the changed program up to atom
// numbering and rule order: atom ids stay stable across updates, new atoms
// take fresh ids, and an atom the change leaves in no fact and no rule
// stays interned, dead. Once dead atoms outnumber live ones, Update
// grounds the changed program from scratch instead, renumbering every
// atom.
//
// Update rewrites p in place and invalidates every program that Extend
// derived from p before the call; no such program may be used afterwards.
// It must not run concurrently with any other use of p or of its
// extensions.
func (p *Program) Update(added, removed []relational.Fact) error {
	st := p.ext
	if st == nil {
		return ErrNoSnapshot
	}
	b := st.base
	if b == nil {
		return errUpdateExtension
	}
	rem, add, ok := st.update(added, removed)
	switch {
	case !ok:
	case len(st.in.atoms)-b.live > b.live:
		facts := relational.SortFacts(append([]relational.Fact(nil), st.facts.facts...))
		*p = *groundFacts(b.rules, facts, b.opts)
	case !b.touched:
		// Facts no rule instance mentions, such as a relation no rule
		// reads: the folded rules stand, and only the facts move.
		st.val = append(st.val, make([]truth, len(st.in.atoms)-len(st.val))...)
		for _, id := range rem {
			st.val[id] = decidedFalse
		}
		p.Facts = slices.DeleteFunc(p.Facts, func(id int) bool { return st.val[id] == decidedFalse })
		for _, id := range add {
			st.val[id] = decidedTrue
		}
		p.Facts = append(p.Facts, add...)
		finish(p, st, nil)
	default:
		if b.raw.dead > len(b.raw.spans)-b.raw.dead {
			b.raw.compact()
		}
		st.val = make([]truth, len(st.in.atoms))
		var facts []int
		for id, isFact := range b.isFact {
			if isFact {
				st.val[id] = decidedTrue
				facts = append(facts, id)
			}
		}
		st.rs = newRuleSet()
		p.Facts = append(facts, settle(st, b.raw, 0)...)
		finish(p, st, nil)
	}
	return nil
}

// update applies the input-fact change to the snapshot and the raw
// instances, and returns the ids of the input facts removed and added; ok
// is false when no input fact changed. It sets b.touched when a raw
// instance changed.
func (st *extState) update(added, removed []relational.Fact) (remIDs, addIDs []int, ok bool) {
	b := st.base
	if b.lits == nil {
		b.init(st)
	}
	b.touched = false
	var rem, add []relational.Fact
	for _, f := range removed {
		if own, ok := st.facts.remove(f); ok {
			rem = append(rem, own)
		}
	}
	for _, f := range added {
		if !st.facts.has(f) {
			own := relational.Fact{Pred: f.Pred, Args: f.Args.Clone()}
			st.facts.add(own)
			add = append(add, own)
		}
	}
	if len(rem)+len(add) == 0 {
		return nil, nil, false
	}

	g := &grounder{fix: st.canon, poss: st.poss, facts: st.facts, subst: term.Subst{}}
	gone, born := g.dred(b, rem, add)

	// Every instance that mentions a changed atom is retracted over the
	// old state and emitted again over the new one.
	changed := newFactSet()
	for _, part := range [4][]relational.Fact{gone, born, rem, add} {
		for _, f := range part {
			changed.add(f)
		}
	}
	g.swap(born, gone)
	swapFacts(st.facts, add, rem)
	st.reemit(changed, true)
	g.swap(gone, born)
	swapFacts(st.facts, rem, add)
	st.reemit(changed, false)

	for _, f := range rem {
		id, _ := st.in.lookupHash(f, f.Hash())
		b.isFact[id] = false
		b.unref(id)
		remIDs = append(remIDs, id)
	}
	for _, f := range add {
		id := st.in.intern(f, true)
		b.grow(len(st.in.atoms))
		b.isFact[id] = true
		b.ref(id)
		addIDs = append(addIDs, id)
	}
	for _, f := range born {
		st.guardRels[relKey(f)] = true
	}
	// A large change may have flattened the canon back into an owner
	// engine; re-freeze it for concurrent Extends.
	st.canon.Freeze()
	return remIDs, addIDs, true
}

// init builds the bookkeeping of the first Update: the literal index, the
// input facts by id, the atoms' reference counts and the raw instances'
// content index.
func (b *baseState) init(st *extState) {
	b.lits = make(map[relational.RelKey][]litRef)
	for ri, r := range b.rules {
		k := 0
		for _, part := range [3][]term.Atom{r.Head, r.Pos, r.Neg} {
			for _, a := range part {
				rk := relational.RelKey{Pred: a.Pred, Arity: a.Arity()}
				b.lits[rk] = append(b.lits[rk], litRef{rule: ri, k: k})
				k++
			}
		}
	}
	b.grow(len(st.in.atoms))
	for _, f := range st.facts.facts {
		id, _ := st.in.lookupHash(f, f.Hash())
		b.isFact[id] = true
		b.ref(id)
	}
	b.raw.reindex()
	for _, sp := range b.raw.spans {
		if sp.dead {
			continue
		}
		for _, a := range b.raw.lits[sp.off:sp.end] {
			b.ref(a)
		}
	}
}

// grow extends the per-atom bookkeeping to n atoms.
func (b *baseState) grow(n int) {
	for len(b.refs) < n {
		b.refs = append(b.refs, 0)
		b.isFact = append(b.isFact, false)
	}
}

func (b *baseState) ref(a int) {
	if b.refs[a]++; b.refs[a] == 1 {
		b.live++
	}
}

func (b *baseState) unref(a int) {
	if b.refs[a]--; b.refs[a] == 0 {
		b.live--
	}
}

// dred moves the possible set across the input-fact change — rem left the
// input facts and add joined them, both already applied to g.facts — by
// delete-and-rederive over the positive program (negation dropped,
// disjunctive heads split): it over-deletes every possible atom with a
// derivation through a removed fact, joined over the old possible set;
// rederives the over-deleted atoms with a one-step derivation from what is
// left; and derives semi-naively from those and the added facts. An input
// fact is never deleted. Support counting would not do: the positive atom
// graph may cycle. It returns the atoms that left and that joined the
// possible set.
func (g *grounder) dred(b *baseState, rem, add []relational.Fact) (gone, born []relational.Fact) {
	over := newFactSet()
	for _, f := range rem {
		over.add(f)
	}
	anchoredRounds(g.fix, b.rules, rem, func(h relational.Fact) (relational.Fact, bool) {
		if g.facts.has(h) || over.has(h) {
			return relational.Fact{}, false
		}
		own, ok := g.poss.get(h)
		if ok {
			over.add(own)
		}
		return own, ok
	})
	for _, f := range over.facts {
		g.poss.remove(f)
		g.fix.Delete(f)
	}

	mark := len(g.poss.facts)
	var seed []relational.Fact
	for _, f := range over.facts {
		if g.derivable(b, f) {
			seed = append(seed, f)
		}
	}
	for _, f := range seed {
		g.insertOwned(f)
	}
	for _, f := range add {
		if g.insertOwned(f) {
			seed = append(seed, f)
		}
	}
	g.semiNaiveRounds(b.rules, seed)

	for _, f := range g.poss.facts[mark:] {
		if !over.has(f) {
			born = append(born, f)
		}
	}
	for _, f := range over.facts {
		if !g.poss.has(f) {
			gone = append(gone, f)
		}
	}
	return gone, born
}

// derivable reports whether a rule derives f in one step from the current
// possible set: one of its head atoms matches f and its positive body joins
// with its builtins holding.
func (g *grounder) derivable(b *baseState, f relational.Fact) bool {
	var boundbuf [8]string
	for _, ref := range b.lits[relKey(f)] {
		r := b.rules[ref.rule]
		if ref.k >= len(r.Head) {
			continue
		}
		bound, ok := relational.MatchInto(boundbuf[:0], f.Args, r.Head[ref.k], g.subst)
		if !ok {
			continue
		}
		steps, ready := relational.PlanJoin(g.fix, r.Pos, r.Builtins, bound)
		found := relational.BuiltinsHold(ready, g.subst) &&
			!relational.Join(g.fix, steps, g.subst, func() bool { return false })
		relational.Unbind(g.subst, bound)
		if found {
			return true
		}
	}
	return false
}

// swap takes the atoms out from the possible set and puts the atoms in
// into it.
func (g *grounder) swap(out, in []relational.Fact) {
	for _, f := range out {
		g.poss.remove(f)
		g.fix.Delete(f)
	}
	for _, f := range in {
		g.insertOwned(f)
	}
}

// swapFacts takes the facts out from s and puts the facts in into it.
func swapFacts(s *factSet, out, in []relational.Fact) {
	for _, f := range out {
		s.remove(f)
	}
	for _, f := range in {
		s.add(f)
	}
}

// reemit finds every rule instance that mentions an atom of changed over
// the current possible and fact sets, and retracts it from the raw
// instances or adds it to them. For each changed atom and each rule
// literal of its relation, the atom binds the literal and the rule's
// positive body is joined over the possible set; an instance is handled
// only through its first literal on a changed atom, so each substitution
// once.
func (st *extState) reemit(changed *factSet, retract bool) {
	b := st.base
	e := &emitter{st: st, subst: term.Subst{}}
	var boundbuf [8]string
	for _, c := range changed.facts {
		for _, ref := range b.lits[relKey(c)] {
			r := b.rules[ref.rule]
			bound, ok := relational.MatchInto(boundbuf[:0], c.Args, literal(r, ref.k), e.subst)
			if !ok {
				continue
			}
			steps, ready := relational.PlanJoin(st.canon, r.Pos, r.Builtins, bound)
			if relational.BuiltinsHold(ready, e.subst) {
				relational.Join(st.canon, steps, e.subst, func() bool {
					if e.changedBefore(r, ref.k, changed) || !e.simplify(r) {
						return true
					}
					if retract {
						st.retract(e)
					} else {
						st.pushLive(e)
					}
					return true
				})
			}
			relational.Unbind(e.subst, bound)
		}
	}
}

// changedBefore reports whether a literal of r before literal k is on a
// changed atom under the current substitution.
func (e *emitter) changedBefore(r logic.Rule, k int, changed *factSet) bool {
	for j := 0; j < k; j++ {
		a := literal(r, j)
		e.scratch = groundAtomInto(e.scratch, a, e.subst)
		if changed.has(relational.Fact{Pred: a.Pred, Args: e.scratch}) {
			return true
		}
	}
	return false
}

// retract removes the built instance from the base's raw instances. It was
// emitted over the state the caller restored, so its atoms are interned and
// an equal live span exists; anything else is a broken invariant.
func (st *extState) retract(e *emitter) {
	b, raw := st.base, st.base.raw
	ids := e.ids[:0]
	for _, f := range e.lits {
		id, ok := st.in.lookupHash(f, f.Hash())
		if !ok {
			panic("ground: a retracted rule instance mentions an atom never interned")
		}
		ids = append(ids, id)
	}
	e.ids = ids
	r := Rule{Head: ids[:e.nh], Pos: ids[e.nh : e.nh+e.np], Neg: ids[e.nh+e.np:]}
	h := ruleHash(r)
	bucket := raw.index[h]
	for j, si := range bucket {
		if !ruleEq(raw.rule(int(si)), r) {
			continue
		}
		raw.spans[si].dead = true
		raw.dead++
		b.touched = true
		bucket[j] = bucket[len(bucket)-1]
		if bucket = bucket[:len(bucket)-1]; len(bucket) == 0 {
			delete(raw.index, h)
		} else {
			raw.index[h] = bucket
		}
		for _, a := range ids {
			b.unref(a)
		}
		return
	}
	panic("ground: a retracted rule instance was never emitted")
}

// pushLive adds the built instance to the base's raw instances.
func (st *extState) pushLive(e *emitter) {
	b, raw := st.base, st.base.raw
	e.push(raw)
	b.touched = true
	b.grow(len(st.in.atoms))
	i := len(raw.spans) - 1
	h := ruleHash(raw.rule(i))
	raw.index[h] = append(raw.index[h], int32(i))
	sp := raw.spans[i]
	for _, a := range raw.lits[sp.off:sp.end] {
		b.ref(a)
	}
}

// reindex builds the content index of the live spans.
func (rs *rawSet) reindex() {
	rs.index = make(map[uint64][]int32, len(rs.spans)-rs.dead)
	for i, sp := range rs.spans {
		if !sp.dead {
			h := ruleHash(rs.rule(i))
			rs.index[h] = append(rs.index[h], int32(i))
		}
	}
}

// compact drops the retracted spans, copying the live ones into a new slab
// and re-indexing them.
func (rs *rawSet) compact() {
	lits := make([]int, 0, len(rs.lits))
	spans := make([]rawSpan, 0, len(rs.spans)-rs.dead)
	for _, sp := range rs.spans {
		if sp.dead {
			continue
		}
		off := int32(len(lits))
		lits = append(lits, rs.lits[sp.off:sp.end]...)
		spans = append(spans, rawSpan{
			off: off,
			pos: off + sp.pos - sp.off,
			neg: off + sp.neg - sp.off,
			end: int32(len(lits)),
		})
	}
	rs.lits, rs.spans, rs.dead = lits, spans, 0
	rs.reindex()
}
