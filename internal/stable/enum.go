package stable

import "repro/internal/ground"

// This file turns one component into an incremental stream of its stable
// models, on a single CDCL solver. The solver is dual-rail:
//
//   - variables 0..n-1 ("originals") carry the component's supported
//     classical models: one clause per rule, units for facts, negative
//     units for underivable atoms, and the supportedness clauses of
//     addSupport (with one fresh variable per rule of an atom that heads
//     several);
//   - variables n..2n-1 ("shadows") carry candidate submodels of the
//     Gelfond–Lifschitz reduct: for every rule, the clause
//     ⋁_{b∈Neg} b  ∨  ⋁_{h∈Head} h'  ∨  ⋁_{b∈Pos} ¬b'
//     over shadow primes, plus the linking clauses h' → h. When the
//     originals are pinned to a model M by assumptions, a rule with a
//     negative body atom in M is satisfied outright (the reduct drops it)
//     and the rest collapse to the reduct's clauses over shadows, with
//     shadows confined to subsets of M by the links.
//
// Enumeration, minimization and the reduct-minimality check are therefore
// three assumption patterns against one incrementally growing clause set,
// and every learned clause carries over between phases — and, through the
// solver's trail retention and deferred selector retirement, between
// candidates: consecutive solves re-use the shared assumption-prefix trail
// instead of restarting from level 0. Temporary constraints ("find a model
// strictly below m") are guarded by fresh selector variables that are
// assumed during the phase and retired lazily afterwards.
//
// Options.scratchSolve is the ablation switch: it replays the accumulated
// clause log into a fresh solver for every solve call, discarding learned
// clauses, saved phases and the retained trail — the rebuild-per-candidate
// behaviour the persistent solver replaces.

// candidateBudget counts the candidate solves of one enumeration call that
// yield a candidate against Options.MaxCandidates; every component
// enumerator of the call charges the same budget.
type candidateBudget struct {
	n, max int
}

func (b *candidateBudget) take() bool {
	b.n++
	return b.n <= b.max
}

// enumerator streams the stable models of one component in a deterministic
// order (the CDCL discovery order, a pure function of the component and the
// scratchSolve mode).
type enumerator struct {
	comp *component
	s    *solver
	n    int // component atoms; shadows are n..2n-1
	bud  *candidateBudget
	done bool
	err  error

	inM []bool // scratch: membership of the current model

	// Scratch-solve ablation state: every clause is recorded so each solve
	// can rebuild a fresh solver from the log.
	scratch bool
	stop    func() bool
	nVars   int
	log     [][]int
}

// sh maps a local atom to its shadow variable.
func (e *enumerator) sh(a int) int { return e.n + a }

func newEnumerator(c *component, bud *candidateBudget, stop func() bool, scratch bool) *enumerator {
	n := len(c.atoms)
	e := &enumerator{comp: c, n: n, bud: bud, inM: make([]bool, n), scratch: scratch, stop: stop}
	if e.scratch {
		e.nVars = 2 * n
	} else {
		e.s = newSolver(2 * n)
		e.s.stop = stop
	}

	inHead := make([]bool, n)
	isFact := make([]bool, n)
	for _, f := range c.facts {
		isFact[f] = true
		e.addClause([]int{pos(f)})
		e.addClause([]int{pos(e.sh(f))})
	}
	for _, r := range c.rules {
		base := make([]int, 0, len(r.Head)+len(r.Pos)+len(r.Neg))
		shadow := make([]int, 0, len(r.Head)+len(r.Pos)+len(r.Neg))
		for _, h := range r.Head {
			inHead[h] = true
			base = append(base, pos(h))
			shadow = append(shadow, pos(e.sh(h)))
		}
		for _, b := range r.Pos {
			base = append(base, neg(b))
			shadow = append(shadow, neg(e.sh(b)))
		}
		for _, b := range r.Neg {
			base = append(base, pos(b))
			shadow = append(shadow, pos(b)) // unshifted: reduct blocking tests the model itself
		}
		e.addClause(base)
		e.addClause(shadow)
	}
	for a := 0; a < n; a++ {
		// h' → h: shadow models are submodels of the pinned original.
		e.addClause([]int{neg(e.sh(a)), pos(a)})
		if !inHead[a] && !isFact[a] {
			// No rule can ever justify a: false on both rails.
			e.addClause([]int{neg(a)})
			e.addClause([]int{neg(e.sh(a))})
		}
	}
	e.addSupport(isFact)
	return e
}

// addSupport restricts the original rail to supported models: a true atom
// that is not a fact heads a rule whose positive body is true, whose
// negated atoms are false and whose other head atoms are false. For each
// such atom a it adds a → ⋁_r sup(r, a). An atom with one rule gets one
// binary clause per literal of sup(r, a); an atom with several rules gets a
// fresh variable per rule, implying that rule's literals, and one clause
// a → ⋁ of them. Every stable model of a disjunctive program is supported
// (Lee & Lifschitz 2003), and a stable model is minimal among the
// classical models, so it stays minimal under the extra clauses: the
// block-and-minimize loop still reaches it, and isStable still decides
// every candidate (DESIGN §5.1).
func (e *enumerator) addSupport(isFact []bool) {
	rulesOf := make([][]int, e.n)
	for ri, r := range e.comp.rules {
		for _, h := range r.Head {
			if !isFact[h] {
				rulesOf[h] = append(rulesOf[h], ri)
			}
		}
	}
	// support appends the literals sup(r, a) implies.
	support := func(dst []int, r ground.Rule, a int) []int {
		for _, b := range r.Pos {
			dst = append(dst, pos(b))
		}
		for _, b := range r.Neg {
			dst = append(dst, neg(b))
		}
		for _, h := range r.Head {
			if h != a {
				dst = append(dst, neg(h))
			}
		}
		return dst
	}
	var lits, any []int
	for a, rs := range rulesOf {
		switch len(rs) {
		case 0:
		case 1:
			lits = support(lits[:0], e.comp.rules[rs[0]], a)
			for _, l := range lits {
				e.addClause([]int{neg(a), l})
			}
		default:
			any = append(any[:0], neg(a))
			for _, ri := range rs {
				s := e.newVar()
				any = append(any, pos(s))
				lits = support(lits[:0], e.comp.rules[ri], a)
				for _, l := range lits {
					e.addClause([]int{neg(s), l})
				}
			}
			e.addClause(any)
		}
	}
}

// addClause registers a clause with the persistent solver, or appends it to
// the replay log in scratch mode.
func (e *enumerator) addClause(c []int) {
	if e.scratch {
		e.log = append(e.log, append([]int(nil), c...))
		return
	}
	e.s.addClause(c)
}

// newVar allocates a solver variable (scratch mode: a fresh id the next
// rebuilt solver will cover).
func (e *enumerator) newVar() int {
	if e.scratch {
		v := e.nVars
		e.nVars++
		return v
	}
	return e.s.newVar()
}

// retire permanently deactivates a selector variable. The persistent solver
// defers the unit to its next sweep (an immediate unit would force a restart
// to level 0); in scratch mode the unit just joins the log.
func (e *enumerator) retire(sel int) {
	if e.scratch {
		e.addClause([]int{neg(sel)})
		return
	}
	e.s.retireLater(neg(sel))
}

// solve runs one solver call. In scratch mode it rebuilds a fresh solver
// from the clause log first — the ablation baseline the persistent,
// learned-clause-retaining solver is measured against.
func (e *enumerator) solve(assumps []int) bool {
	if e.scratch {
		s := newSolver(e.nVars)
		s.stop = e.stop
		e.s = s
		for _, c := range e.log {
			if !s.addClause(c) {
				return false
			}
		}
	}
	return e.s.solveWith(assumps)
}

// next produces the component's next stable model (global atom ids,
// ascending), or ok=false when the stream is exhausted, cancelled, or the
// candidate budget ran out (then e.err is ErrCandidateLimit).
func (e *enumerator) next() (m Model, ok bool) {
	for !e.done {
		if !e.solve(nil) {
			e.done = true
			break
		}
		// Only a solve that yields a candidate is charged: the one that
		// proves the component exhausted is free.
		if !e.bud.take() {
			e.err = ErrCandidateLimit
			e.done = true
			break
		}
		cand := e.minimize(e.extract())
		stable := e.isStable(cand)
		if len(cand) == 0 {
			// The empty model: no further distinct minimal model exists.
			e.done = true
		} else {
			// Block cand and its supersets; minimal models are pairwise
			// incomparable, so no other candidate is lost.
			block := make([]int, len(cand))
			for i, a := range cand {
				block[i] = neg(a)
			}
			e.addClause(block)
		}
		if stable {
			return e.globalize(cand), true
		}
	}
	return nil, false
}

// extract reads the original-rail model off the solver.
func (e *enumerator) extract() []int {
	var m []int
	for a := 0; a < e.n; a++ {
		if e.s.assign[a] == 1 {
			m = append(m, a)
		}
	}
	return m
}

// setM populates the membership scratch for m and returns a restore hook.
func (e *enumerator) setM(m []int) func() {
	for _, a := range m {
		e.inM[a] = true
	}
	return func() {
		for _, a := range m {
			e.inM[a] = false
		}
	}
}

// minimize descends from a classical model to a minimal classical model
// (set inclusion over the originals). Each round adds, under a fresh
// selector sel, the clause "at least one atom of m is false" and solves
// with atoms outside m assumed false; UNSAT means m is minimal. The
// selector rides at the end of the assumptions so consecutive rounds (whose
// outside-sets grow monotonically) share a retained assumption-prefix trail
// in the persistent solver.
func (e *enumerator) minimize(m []int) []int {
	if len(m) == 0 {
		return m
	}
	sel := e.newVar()
	for {
		clause := make([]int, 0, len(m)+1)
		clause = append(clause, neg(sel))
		for _, a := range m {
			clause = append(clause, neg(a))
		}
		e.addClause(clause)

		restore := e.setM(m)
		assumps := make([]int, 0, e.n-len(m)+1)
		for a := 0; a < e.n; a++ {
			if !e.inM[a] {
				assumps = append(assumps, neg(a))
			}
		}
		assumps = append(assumps, pos(sel))
		restore()
		if !e.solve(assumps) {
			break
		}
		m = e.extract()
	}
	e.retire(sel)
	return m
}

// isStable checks whether m is a minimal model of the GL-reduct Π^m: the
// originals are pinned to m by assumptions, and a strictness clause (under
// a fresh selector, assumed last) demands a shadow model missing at least
// one atom of m. SAT refutes stability; UNSAT certifies it.
func (e *enumerator) isStable(m []int) bool {
	sel := e.newVar()
	clause := make([]int, 0, len(m)+1)
	clause = append(clause, neg(sel))
	for _, a := range m {
		clause = append(clause, neg(e.sh(a)))
	}
	e.addClause(clause)

	restore := e.setM(m)
	assumps := make([]int, 0, e.n+1)
	for a := 0; a < e.n; a++ {
		if e.inM[a] {
			assumps = append(assumps, pos(a))
		} else {
			assumps = append(assumps, neg(a))
		}
	}
	assumps = append(assumps, pos(sel))
	restore()
	sat := e.solve(assumps)
	e.retire(sel)
	return !sat
}

// globalize maps a local model onto the program's atom ids (order is
// preserved: comp.atoms ascends, so the result ascends).
func (e *enumerator) globalize(m []int) Model {
	out := make(Model, len(m))
	for i, a := range m {
		out[i] = e.comp.atoms[a]
	}
	return out
}
