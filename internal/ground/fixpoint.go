package ground

import (
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// Ground instantiates the program. It returns an error for unsafe rules.
// The returned Program retains its grounding snapshot, so further rules can
// be grounded against it with Extend without re-grounding the base.
func Ground(p *logic.Program) (*Program, error) {
	return GroundWith(p, Options{})
}

// GroundWith instantiates the program with explicit options. The emitted
// program is identical for every option setting; options only change how it
// is computed.
func GroundWith(p *logic.Program, opts Options) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	facts := make([]relational.Fact, len(p.Facts))
	for i, a := range p.Facts {
		facts[i] = groundFact(a)
	}
	return groundFacts(p.Rules, facts, opts), nil
}

// groundFacts grounds validated rules over the input facts, which it takes
// ownership of (duplicates are absorbed). The rules are retained for
// Update and must not change afterwards.
func groundFacts(rules []logic.Rule, input []relational.Fact, opts Options) *Program {
	g := &grounder{
		opts:  opts,
		fix:   relational.NewInstance(),
		poss:  newFactSet(),
		facts: newFactSet(),
	}

	// Seed: program facts are unconditionally true and possible.
	var seedFacts []relational.Fact
	for _, f := range input {
		if g.facts.add(f) {
			seedFacts = append(seedFacts, f)
			g.insertOwned(f)
		}
	}

	if opts.naive {
		g.fixpointNaive(rules)
	} else {
		g.fixpointSemiNaive(rules)
	}

	// Canonicalize: rebuild the possible set in sorted fact order, so rule
	// instantiation — whose enumeration order follows store scan order —
	// becomes a pure function of the possible set, independent of the
	// fixpoint schedule that derived it.
	canon := relational.NewInstance()
	for _, f := range g.fix.Facts() {
		canon.Insert(f)
	}
	canon.Freeze()
	g.fix = nil

	st := &extState{
		canon:     canon,
		poss:      g.poss,
		facts:     g.facts,
		in:        newInterner(),
		rs:        newRuleSet(),
		guardRels: guardRels(nil, rules, canon),
		base:      &baseState{rules: rules, opts: opts},
	}
	gp := &Program{}
	for _, f := range seedFacts {
		gp.Facts = append(gp.Facts, st.in.intern(f, true))
		st.val = append(st.val, decidedTrue)
	}
	st.base.raw = emit(st, rules)
	gp.Facts = append(gp.Facts, settle(st, st.base.raw, 0)...)
	finish(gp, st, nil)
	return gp
}

// guardRels collects the relations an extension's rule heads must avoid:
// every relation with a possible atom and every relation referenced by a
// rule body. Deriving new atoms into any of them could change how the
// already-emitted rules would have grounded. base is the inherited guard
// set of a parent extension (nil for a fresh grounding); it is not mutated.
func guardRels(base map[relational.RelKey]bool, rules []logic.Rule, canon *relational.Instance) map[relational.RelKey]bool {
	g := make(map[relational.RelKey]bool, len(base)+len(rules))
	for rk := range base {
		g[rk] = true
	}
	for _, r := range rules {
		for _, a := range r.Pos {
			g[relational.RelKey{Pred: a.Pred, Arity: a.Arity()}] = true
		}
		for _, a := range r.Neg {
			g[relational.RelKey{Pred: a.Pred, Arity: a.Arity()}] = true
		}
	}
	for _, rk := range canon.RelKeys() {
		g[rk] = true
	}
	return g
}

// finish assembles the program from the grounding state. For an extension,
// baseRules is the parent program's rule slice, shared as a capacity-capped
// prefix so appends never clobber the parent; the level's ruleSet holds
// only the rules settled at this level.
func finish(gp *Program, st *extState, baseRules []Rule) {
	gp.Rules = append(baseRules[:len(baseRules):len(baseRules)], st.rs.rules...)
	gp.Atoms = st.in.atoms
	gp.ext = st
}

// grounder carries the fixpoint state: fix is the growing possible-set
// instance (joined through per-relation stores and bound-column indexes),
// poss mirrors it for alloc-free membership, facts holds the
// unconditionally true atoms.
type grounder struct {
	opts  Options
	fix   *relational.Instance
	poss  *factSet
	facts *factSet
	subst term.Subst // Update's rederivation scratch
}

// insertPossible adds a possible atom, returning its owned copy and
// whether it was new. f may alias scratch storage; it is cloned before
// being retained.
func (g *grounder) insertPossible(f relational.Fact) (relational.Fact, bool) {
	if g.poss.has(f) {
		return relational.Fact{}, false
	}
	owned := relational.Fact{Pred: f.Pred, Args: f.Args.Clone()}
	g.insertOwned(owned)
	return owned, true
}

// insertOwned adds a possible atom the caller hands over, reporting whether
// it was new.
func (g *grounder) insertOwned(f relational.Fact) bool {
	if !g.poss.add(f) {
		return false
	}
	g.fix.Insert(f)
	return true
}

// fixpointSemiNaive computes the possible set bottom-up, instantiating each
// rule only through substitutions anchored on an atom derived in the
// previous round. Every positive literal takes a turn as the delta anchor,
// so a substitution whose newest body atom was derived in round k is found
// in round k+1 (at the latest) when that atom's literal anchors. Headless
// rules (constraints) derive nothing and are skipped.
func (g *grounder) fixpointSemiNaive(rules []logic.Rule) {
	subst := term.Subst{}
	var scratch relational.Tuple

	// Round 0: the seeded facts, plus heads of rules with no positive
	// body (their builtins, if any, are ground and decide applicability
	// once).
	delta := append([]relational.Fact(nil), g.poss.facts...)
	for _, r := range rules {
		if len(r.Head) == 0 || len(r.Pos) > 0 {
			continue
		}
		if !relational.BuiltinsHold(r.Builtins, subst) {
			continue
		}
		for _, h := range r.Head {
			scratch = groundAtomInto(scratch, h, subst)
			if f, ok := g.insertPossible(relational.Fact{Pred: h.Pred, Args: scratch}); ok {
				delta = append(delta, f)
			}
		}
	}

	g.semiNaiveRounds(rules, delta)
}

// semiNaiveRounds drives the delta rounds to fixpoint, inserting every
// derived head atom into the possible set; the newly derived atoms form the
// next round's delta.
func (g *grounder) semiNaiveRounds(rules []logic.Rule, delta []relational.Fact) {
	anchoredRounds(g.fix, rules, delta, g.insertPossible)
}

// anchoredRounds joins the rules with a head over inst in delta rounds:
// each round joins every such rule through substitutions anchored on an
// atom of the round's delta, each positive literal taking a turn as the
// anchor, and hands every instantiated head atom (aliasing scratch storage)
// to derive, which returns the owned atom that joins the next round's
// delta, or false. Atoms derive adds to inst within a round are visible to
// the rest of the round; they anchor joins themselves one round later.
func anchoredRounds(inst *relational.Instance, rules []logic.Rule, delta []relational.Fact, derive func(relational.Fact) (relational.Fact, bool)) {
	subst := term.Subst{}
	var scratch relational.Tuple
	var restbuf [8]term.Atom
	var prebuf [8]string
	var boundbuf [8]string
	for len(delta) > 0 {
		byRel := make(map[relational.RelKey][]relational.Fact)
		for _, f := range delta {
			rk := relational.RelKey{Pred: f.Pred, Arity: len(f.Args)}
			byRel[rk] = append(byRel[rk], f)
		}
		var next []relational.Fact
		for _, r := range rules {
			if len(r.Head) == 0 || len(r.Pos) == 0 {
				continue
			}
			for ai := range r.Pos {
				anchor := r.Pos[ai]
				group := byRel[relational.RelKey{Pred: anchor.Pred, Arity: anchor.Arity()}]
				if len(group) == 0 {
					continue
				}
				rest := append(restbuf[:0], r.Pos[:ai]...)
				rest = append(rest, r.Pos[ai+1:]...)
				steps, ready := relational.PlanJoin(inst, rest, r.Builtins, anchor.Vars(prebuf[:0]))
				for _, f := range group {
					bound, ok := relational.MatchInto(boundbuf[:0], f.Args, anchor, subst)
					if !ok {
						continue
					}
					if relational.BuiltinsHold(ready, subst) {
						relational.Join(inst, steps, subst, func() bool {
							for _, h := range r.Head {
								scratch = groundAtomInto(scratch, h, subst)
								if f, ok := derive(relational.Fact{Pred: h.Pred, Args: scratch}); ok {
									next = append(next, f)
								}
							}
							return true
						})
					}
					relational.Unbind(subst, bound)
				}
			}
		}
		delta = next
	}
}

// fixpointNaive is the round-robin ablation: every rule re-joined over the
// whole possible set each round in literal order, builtins evaluated at the
// join leaf — the pre-semi-naive algorithm, kept as a differential-testing
// reference.
func (g *grounder) fixpointNaive(rules []logic.Rule) {
	subst := term.Subst{}
	var scratch relational.Tuple
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if len(r.Head) == 0 {
				continue
			}
			relational.Join(g.fix, relational.Steps(r.Pos), subst, func() bool {
				if !relational.BuiltinsHold(r.Builtins, subst) {
					return true
				}
				for _, h := range r.Head {
					scratch = groundAtomInto(scratch, h, subst)
					if _, ok := g.insertPossible(relational.Fact{Pred: h.Pred, Args: scratch}); ok {
						changed = true
					}
				}
				return true
			})
		}
	}
}
