package ground

import (
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// extState is the grounding snapshot a Program retains so Extend can ground
// further rules against it: the canonical (sorted, frozen) possible-set
// instance, the possible/fact membership sets, the atom interner, the
// folded rules' dedup state, each atom's folded value, and the relations
// extension heads must avoid. All of it is frozen once the program is
// built; extensions layer child sets on top, and Update moves a base
// grounding's snapshot in place.
//
// facts holds the input facts only, never the folded ones: emission
// decides rule instances against it before interning their atoms, and a
// monolithic grounding folds only after its whole emission, so an
// extension that dropped instances on folded base facts would intern
// different atoms than the monolithic grounding of the same rules.
type extState struct {
	canon     *relational.Instance
	poss      *factSet
	facts     *factSet
	in        *interner
	rs        *ruleSet
	guardRels map[relational.RelKey]bool
	// val is the folded value of every atom id, input facts true; an
	// extension's val shares its parent's as a capacity-capped prefix.
	val []truth
	// base is what Update needs besides the snapshot (update.go); nil on
	// an extension level.
	base *baseState
}

// rawSet holds one grounding level's emitted rule instances, before the
// fold, in one literal slab: an instance is a span of atom ids, its head
// atoms, then its positive, then its negated body atoms, each part
// duplicate-free and in source literal order.
type rawSet struct {
	lits  []int
	spans []rawSpan
	// dead counts the retracted spans (Update); index finds a live span by
	// its content, and is built by the first Update.
	dead  int
	index map[uint64][]int32
}

// rawSpan locates one instance in the slab: lits[off:pos] are its head,
// lits[pos:neg] its positive and lits[neg:end] its negated atoms.
type rawSpan struct {
	off, pos, neg, end int32
	dead               bool
}

// rule returns span i as a Rule aliasing the slab; empty parts are nil.
func (rs *rawSet) rule(i int) Rule {
	sp := rs.spans[i]
	return Rule{
		Head: slabPart(rs.lits, sp.off, sp.pos),
		Pos:  slabPart(rs.lits, sp.pos, sp.neg),
		Neg:  slabPart(rs.lits, sp.neg, sp.end),
	}
}

func slabPart(lits []int, lo, hi int32) []int {
	if lo == hi {
		return nil
	}
	return lits[lo:hi:hi]
}

// emit instantiates rules over the canonical possible set, in source-rule
// order, interning each surviving instance's atoms into st.in as the join
// finds it, and returns the instances in that order for settle to fold.
func emit(st *extState, rules []logic.Rule) *rawSet {
	e := &emitter{st: st, subst: term.Subst{}}
	raw := &rawSet{}
	for _, r := range rules {
		steps, ready := relational.PlanJoin(st.canon, r.Pos, r.Builtins, nil)
		if !relational.BuiltinsHold(ready, e.subst) {
			continue
		}
		relational.Join(st.canon, steps, e.subst, func() bool {
			if e.simplify(r) {
				e.push(raw)
			}
			return true
		})
	}
	return raw
}

// emitter holds emission's substitution and the instance being built: its
// literals as facts whose tuples live in one reused arena, heads first
// (nh of them), then np positive, then the negated ones.
type emitter struct {
	st     *extState
	subst  term.Subst
	arena  relational.Tuple
	lits   []relational.Fact
	nh, np int

	// Update's scratch: one instantiated literal, and the atom ids of a
	// retracted instance.
	scratch relational.Tuple
	ids     []int
}

// simplify builds one ground rule instance under the current substitution,
// simplifying it against the possible and fact sets: a head that is a fact
// satisfies the rule (drop it); a positive literal that is a fact is always
// true (omit it) and one that is not possible can never hold (drop the
// rule); a negated fact is false (drop the rule) and a negated non-possible
// atom is true (omit it). It reports whether the instance survives.
func (e *emitter) simplify(r logic.Rule) bool {
	e.arena, e.lits = e.arena[:0], e.lits[:0]
	for _, h := range r.Head {
		f := e.ground(h)
		if e.st.facts.has(f) {
			return false
		}
		e.addUniq(f, 0)
	}
	e.nh = len(e.lits)
	for _, a := range r.Pos {
		f := e.ground(a)
		if e.st.facts.has(f) {
			continue
		}
		if !e.st.poss.has(f) {
			return false
		}
		e.addUniq(f, e.nh)
	}
	e.np = len(e.lits) - e.nh
	for _, a := range r.Neg {
		f := e.ground(a)
		if e.st.facts.has(f) {
			return false
		}
		if !e.st.poss.has(f) {
			continue
		}
		e.addUniq(f, e.nh+e.np)
	}
	return true
}

// ground instantiates a under the substitution into the arena. The tuple
// is capacity-capped, so later arena appends never overwrite it.
func (e *emitter) ground(a term.Atom) relational.Fact {
	start := len(e.arena)
	for _, t := range a.Args {
		if t.IsVar() {
			e.arena = append(e.arena, e.subst[t.Var])
		} else {
			e.arena = append(e.arena, t.Const)
		}
	}
	end := len(e.arena)
	return relational.Fact{Pred: a.Pred, Args: e.arena[start:end:end]}
}

// addUniq appends f to the literals unless an equal one is in the part
// starting at from.
func (e *emitter) addUniq(f relational.Fact, from int) {
	for _, g := range e.lits[from:] {
		if g.Equal(f) {
			return
		}
	}
	e.lits = append(e.lits, f)
}

// push interns the built instance's atoms, in literal order, and appends it
// to raw as a new span.
func (e *emitter) push(raw *rawSet) {
	off := int32(len(raw.lits))
	for _, f := range e.lits {
		raw.lits = append(raw.lits, e.st.in.intern(f, false))
	}
	raw.spans = append(raw.spans, rawSpan{
		off: off,
		pos: off + int32(e.nh),
		neg: off + int32(e.nh+e.np),
		end: int32(len(raw.lits)),
	})
}
