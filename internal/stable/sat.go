package stable

import "slices"

// A conflict-driven clause-learning (CDCL) SAT solver — the search core of
// the stable-model engine. Compared with the DPLL core it replaces, the
// solver learns a first-UIP clause at every conflict, backjumps
// non-chronologically, branches by VSIDS-style activity with phase saving,
// and solves incrementally: clauses can be added between solve calls
// (blocking clauses, minimization descents) and each call may carry
// assumptions, so model enumeration, the minimization descent and the
// GL-reduct minimality check all share one solver and its learned clauses.
//
// Literal encoding: variable v (0-based) contributes literals 2v (positive)
// and 2v+1 (negative). All operations are deterministic: activity ties break
// by variable id, so a fixed clause stream yields a fixed model stream.

// lit constructors.
func pos(v int) int { return 2 * v }
func neg(v int) int { return 2*v + 1 }

func litVar(l int) int   { return l >> 1 }
func litSign(l int) bool { return l&1 == 0 } // true = positive

func negate(l int) int { return l ^ 1 }

// noReason marks decision (and assumption) variables on the trail.
const noReason = -1

type clause struct {
	lits   []int
	learnt bool
}

type solver struct {
	clauses []*clause
	watches [][]int32 // literal -> indices of clauses watching it
	assign  []int8    // -1 unassigned, 0 false, 1 true
	level   []int32   // decision level per variable
	reason  []int32   // antecedent clause index per variable, or noReason

	trail    []int // assigned literals in order
	trailLim []int // trail length at the start of each decision level
	qhead    int   // propagation queue head into trail

	activity []float64
	varInc   float64
	heap     []int // max-heap of variables ordered by activity
	heapPos  []int // variable -> heap index, -1 when absent
	phase    []int8

	seen []bool // conflict-analysis scratch
	ok   bool   // false once the clause set is UNSAT at level 0

	// lastAssumps remembers the previous solveWith's assumptions so the
	// next call can keep the trail prefix both calls share instead of
	// restarting from level 0 — the Δ-seeded re-solve: when consecutive
	// solves differ in a few assumptions (the minimization descent, or a
	// candidate solve after a blocking clause), only the differing suffix
	// is re-searched.
	lastAssumps []int

	// deferred holds retirement units (see retireLater) not yet applied:
	// enqueueing a unit forces a full restart to level 0, so enumeration
	// selectors are retired lazily, in a batch, right before the next
	// sweep — which is when the units are needed to reclaim their clauses.
	deferred []int

	// rootAssigns counts level-0 assignments since the last sweep of
	// satisfied clauses; enumeration retires selector variables with
	// level-0 units, so without sweeping, dead descent/strictness/learned
	// clauses would accumulate in the watch lists forever.
	rootAssigns int

	// stop, when non-nil, is polled at every conflict and decision so a
	// cancelled enumeration abandons an in-flight solve promptly. A solve
	// interrupted this way reports UNSAT; callers only cancel when the
	// result is discarded.
	stop func() bool
}

func newSolver(nVars int) *solver {
	s := &solver{ok: true, varInc: 1}
	for v := 0; v < nVars; v++ {
		s.newVar()
	}
	return s
}

// newVar grows the solver by one variable and returns its id. The default
// phase is false, which biases enumeration toward small models.
func (s *solver) newVar() int {
	v := len(s.assign)
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, -1)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.heapPos = append(s.heapPos, -1)
	s.phase = append(s.phase, 0)
	s.seen = append(s.seen, false)
	s.heapInsert(v)
	return v
}

func (s *solver) litValue(l int) int8 {
	v := s.assign[litVar(l)]
	if v == -1 {
		return -1
	}
	if litSign(l) {
		return v
	}
	return 1 - v
}

func (s *solver) decisionLevel() int { return len(s.trailLim) }

// dedupLits removes duplicate literals, keeping first occurrences in order;
// returns nil, false for tautologies. It marks variables in s.seen, which
// is all false outside analyze, and clears the marks before returning.
func (s *solver) dedupLits(c []int) ([]int, bool) {
	out := make([]int, 0, len(c))
	taut := false
	for _, l := range c {
		if !s.seen[litVar(l)] {
			s.seen[litVar(l)] = true
			out = append(out, l)
		} else if slices.Contains(out, negate(l)) {
			taut = true
			break
		}
	}
	for _, l := range out {
		s.seen[litVar(l)] = false
	}
	if taut {
		return nil, false
	}
	return out, true
}

// addClause registers a clause without abandoning the search trail: literals
// false at level 0 are dropped, a clause satisfied at level 0 is discarded,
// and the solver backtracks only as far as needed to leave the clause with
// two watchable (non-false) literals — blocking and descent clauses land
// mid-search with a minimal backjump instead of a restart. Unit clauses are
// permanent consequences and do go to level 0. Returns false if the clause
// set became UNSAT.
func (s *solver) addClause(c []int) bool {
	if !s.ok {
		return false
	}
	cc, keep := s.dedupLits(c)
	if !keep {
		return true // tautology
	}
	lits := cc[:0]
	for _, l := range cc {
		switch s.litValue(l) {
		case 1:
			if s.level[litVar(l)] == 0 {
				return true // already satisfied forever
			}
			lits = append(lits, l)
		case 0:
			if s.level[litVar(l)] != 0 {
				lits = append(lits, l)
			}
			// level-0 false literals are dropped
		default:
			lits = append(lits, l)
		}
	}
	switch len(lits) {
	case 0:
		s.cancelUntil(0)
		s.ok = false
		return false
	case 1:
		s.cancelUntil(0)
		s.uncheckedEnqueue(lits[0], noReason) // non-false above level 0, so unassigned now
		return true
	}
	// Backtrack just far enough that two literals are watchable: to keep a
	// falsified watch detectable by propagate, a watch must not already be
	// false when attached.
	nonFalse := 0
	hi1, hi2 := 0, 0 // the two highest false-literal levels
	for _, l := range lits {
		if s.litValue(l) != 0 {
			nonFalse++
			continue
		}
		lvl := int(s.level[litVar(l)])
		if lvl > hi1 {
			hi1, hi2 = lvl, hi1
		} else if lvl > hi2 {
			hi2 = lvl
		}
	}
	switch nonFalse {
	case 0:
		s.cancelUntil(hi2 - 1) // unassigns the two deepest false literals
	case 1:
		s.cancelUntil(hi1 - 1) // unassigns the deepest false literal
	}
	w := 0
	for i, l := range lits {
		if s.litValue(l) != 0 {
			lits[w], lits[i] = lits[i], lits[w]
			w++
			if w == 2 {
				break
			}
		}
	}
	s.attach(&clause{lits: lits})
	return true
}

// retireLater schedules a unit clause (a retired enumeration selector) to be
// added at the next sweep. Until then the selector merely floats: nothing
// forces it true, so its descent/strictness clauses are satisfiable by its
// negation and every model remains a model of the eventual clause set —
// deferring only avoids the restart-to-level-0 an immediate unit would cost.
func (s *solver) retireLater(l int) {
	s.deferred = append(s.deferred, l)
}

func (s *solver) attach(c *clause) {
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	s.watches[c.lits[0]] = append(s.watches[c.lits[0]], ci)
	s.watches[c.lits[1]] = append(s.watches[c.lits[1]], ci)
}

func (s *solver) uncheckedEnqueue(l int, reason int32) {
	v := litVar(l)
	if litSign(l) {
		s.assign[v] = 1
	} else {
		s.assign[v] = 0
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = reason
	s.trail = append(s.trail, l)
	if s.decisionLevel() == 0 {
		s.rootAssigns++
	}
}

// propagate runs unit propagation to fixpoint; it returns the index of a
// conflicting clause, or -1.
func (s *solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falsified := negate(p)
		ws := s.watches[falsified]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			c := s.clauses[ci].lits
			if c[0] == falsified {
				c[0], c[1] = c[1], c[0]
			}
			// Invariant: c[1] == falsified.
			if s.litValue(c[0]) == 1 {
				kept = append(kept, ci)
				continue
			}
			found := false
			for k := 2; k < len(c); k++ {
				if s.litValue(c[k]) != 0 {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], ci)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting on c[0].
			kept = append(kept, ci)
			if s.litValue(c[0]) == 0 {
				kept = append(kept, ws[wi+1:]...)
				s.watches[falsified] = kept
				s.qhead = len(s.trail)
				return ci
			}
			s.uncheckedEnqueue(c[0], ci)
		}
		s.watches[falsified] = kept
	}
	return -1
}

// analyze derives the first-UIP learned clause from a conflict. It returns
// the clause (asserting literal first) and the backjump level.
func (s *solver) analyze(confl int32) ([]int, int) {
	s.varInc /= varDecay
	learnt := []int{0} // slot for the asserting literal
	counter := 0
	p := -1
	index := len(s.trail) - 1
	cur := s.decisionLevel()
	for {
		c := s.clauses[confl].lits
		for _, q := range c {
			if q == p {
				continue
			}
			v := litVar(q)
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bump(v)
			if int(s.level[v]) >= cur {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[litVar(s.trail[index])] {
			index--
		}
		p = s.trail[index]
		index--
		s.seen[litVar(p)] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[litVar(p)]
	}
	learnt[0] = negate(p)
	for _, q := range learnt[1:] {
		s.seen[litVar(q)] = false
	}
	// Backjump to the second-highest level in the clause, moving one of its
	// literals into the watch position.
	bt := 0
	for i := 1; i < len(learnt); i++ {
		if int(s.level[litVar(learnt[i])]) > bt {
			bt = int(s.level[litVar(learnt[i])])
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	return learnt, bt
}

const (
	varDecay    = 0.95
	activityCap = 1e100
)

func (s *solver) bump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > activityCap {
		for i := range s.activity {
			s.activity[i] /= activityCap
		}
		s.varInc /= activityCap
	}
	if s.heapPos[v] != -1 {
		s.heapUp(s.heapPos[v])
	}
}

// record installs a learned clause and enqueues its asserting literal. The
// caller has already backjumped to the clause's assertion level.
func (s *solver) record(learnt []int) {
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], noReason)
		return
	}
	c := &clause{lits: learnt, learnt: true}
	ci := int32(len(s.clauses))
	s.attach(c)
	s.uncheckedEnqueue(learnt[0], ci)
}

// cancelUntil undoes all assignments above the given decision level, saving
// phases and restoring branch candidates.
func (s *solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	mark := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= mark; i-- {
		v := litVar(s.trail[i])
		s.phase[v] = s.assign[v]
		s.assign[v] = -1
		s.reason[v] = noReason
		if s.heapPos[v] == -1 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:mark]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = mark
}

func (s *solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// pickBranchLit pops the highest-activity unassigned variable and returns
// its saved-phase literal, or -1 when every variable is assigned.
func (s *solver) pickBranchLit() int {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == -1 {
			if s.phase[v] == 1 {
				return pos(v)
			}
			return neg(v)
		}
	}
	return -1
}

// solveWith searches for a model under the given assumptions. Assumption i
// is decided at level i+1, so conflict clauses can backjump through them and
// be re-applied. It returns false when the clause set is UNSAT under the
// assumptions (or the stop hook fired). On true, every variable is assigned;
// read the model from assign before the next addClause or solveWith call.
// sweepThreshold schedules the satisfied-clause sweep: once this many
// level-0 assignments have accumulated, the next solve call garbage-collects
// root-satisfied clauses before searching.
const sweepThreshold = 32

func (s *solver) solveWith(assumps []int) bool {
	if !s.ok {
		return false
	}
	if s.rootAssigns+len(s.deferred) >= sweepThreshold {
		// Flush the deferred retirement units and garbage-collect: both
		// need level 0, and batching them here means only the sweep pays
		// the restart.
		s.cancelUntil(0)
		deferred := s.deferred
		s.deferred = s.deferred[:0]
		for _, l := range deferred {
			if !s.addClause([]int{l}) {
				return false
			}
		}
		s.sweepSatisfied()
		s.rootAssigns = 0
	}
	// Keep the trail prefix the previous call's assumptions share with this
	// one: those levels hold only matching assumption decisions and their
	// consequences under the clause set, so they are valid verbatim — the
	// minimization descent re-solves only the suffix that changed. When the
	// new assumptions are a prefix of the previous ones (in particular,
	// when there are none), every retained level beyond them is kept as a
	// plain decision: models found under it satisfy the full clause set,
	// and conflict-driven learning undoes it when the subspace is exhausted,
	// so completeness is unaffected.
	cp := 0
	for cp < len(assumps) && cp < len(s.lastAssumps) && assumps[cp] == s.lastAssumps[cp] {
		cp++
	}
	if cp < len(assumps) {
		s.cancelUntil(cp)
	}
	s.lastAssumps = append(s.lastAssumps[:0], assumps...)
	for {
		confl := s.propagate()
		if confl != -1 {
			if s.stop != nil && s.stop() {
				return false
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return false
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			s.record(learnt)
			continue
		}
		// Re-apply assumptions up to the current level.
		next := -1
		for next == -1 && s.decisionLevel() < len(assumps) {
			p := assumps[s.decisionLevel()]
			switch s.litValue(p) {
			case 1:
				s.newDecisionLevel() // already holds: dummy level keeps the mapping
			case 0:
				return false // falsified by level 0 and earlier assumptions
			default:
				next = p
			}
		}
		if next == -1 {
			if s.stop != nil && s.stop() {
				return false
			}
			next = s.pickBranchLit()
			if next == -1 {
				return true // every variable assigned: model found
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, noReason)
	}
}

// sweepSatisfied detaches and frees every clause satisfied at level 0 —
// blocking clauses of supersets already excluded by units, descent and
// strictness clauses whose selector was retired, and learned clauses
// containing a retired selector. Must run at decision level 0; clause slots
// are nil'ed rather than compacted so reason indices stay valid (reasons of
// level-0 variables are never dereferenced by analyze).
func (s *solver) sweepSatisfied() {
	for ci, c := range s.clauses {
		if c == nil {
			continue
		}
		satisfied := false
		for _, l := range c.lits {
			if s.litValue(l) == 1 {
				satisfied = true
				break
			}
		}
		if !satisfied {
			continue
		}
		s.detachWatch(c.lits[0], int32(ci))
		s.detachWatch(c.lits[1], int32(ci))
		s.clauses[ci] = nil
	}
}

func (s *solver) detachWatch(l int, ci int32) {
	ws := s.watches[l]
	for i, w := range ws {
		if w == ci {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

// --- activity-ordered variable heap (max-heap, ties by variable id) --------

func (s *solver) heapLess(a, b int) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *solver) heapInsert(v int) {
	s.heapPos[v] = len(s.heap)
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *solver) heapPop() int {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heapPos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if len(s.heap) > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = i
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *solver) heapDown(i int) {
	v := s.heap[i]
	for {
		child := 2*i + 1
		if child >= len(s.heap) {
			break
		}
		if child+1 < len(s.heap) && s.heapLess(s.heap[child+1], s.heap[child]) {
			child++
		}
		if !s.heapLess(s.heap[child], v) {
			break
		}
		s.heap[i] = s.heap[child]
		s.heapPos[s.heap[i]] = i
		i = child
	}
	s.heap[i] = v
	s.heapPos[v] = i
}
