// Package direct implements the repair-less polynomial CQA engine for
// FD-only constraint sets, after Laurent & Spyratos (arXiv 2301.03668):
// consistent answers over tables with nulls and functional dependencies are
// computed from a classification of the data, never from an enumeration of
// repairs.
//
// # Classification
//
// For each relation carrying an FD K → A the engine partitions the tuples
// by their K-projection into key groups and, inside each group, by their
// A-value into classes. Under the paper's null-aware semantics
// (Definition 4) a tuple with null in a key or dependent position is exempt
// — those are exactly the relevant attributes A(ψ) of Definition 2 — so
// exempt tuples, tuples of non-FD relations, and tuples of groups with a
// single class are classified true (they belong to every repair). Tuples of
// a group with ≥ 2 classes are inconsistent: the null-based repairs of an
// FD-only set are exactly the choice products
//
//	Rep(D) = { D − ⋃_{g conflicted} (g − class c_g) : one class c_g per group }
//
// (deletion-only, one surviving class per conflicted group, all choices
// pairwise Δ-incomparable), so an inconsistent tuple belongs to exactly the
// repairs whose choice for its group is its own class. Facts absent from D
// are classified false — they belong to no repair, since null-based FD
// repairs never insert. The classification is maintained incrementally:
// Update applies a Delta in O(|Δ|), adjusting class counts and the
// conflicted-group set, with no re-scan of the instance.
//
// # Answering
//
// A candidate answer is an assignment of a disjunct's positive literals over
// D (builtins included); its witness records, per conflict group, which
// class the assignment requires to survive (positive literals) and which
// classes it requires to be deleted (negated literals). A candidate is a
// possible answer iff some witness is internally consistent, and a certain
// answer iff the disjunction of its witnesses covers every choice of classes
// — decided by branching over the classes of one mentioned group at a time.
// The pass is polynomial in |D| per candidate except in the number of
// conflict groups entangled by a single candidate's witnesses, which is the
// irreducible hard core: certain answers for conjunctive queries under key
// repairs are coNP-complete in general (Fuxman–Miller), and the branching
// is exponential only where that hardness actually bites. SetMaxStates
// bounds that branching per candidate (repair.ErrStateLimit).
//
// # Standing queries
//
// Patch moves a query's sorted certain answers across one delta. Only a
// tuple with an assignment that puts a literal on an anchor can change
// status: on the new instance an added fact, a removed fact under a
// negated literal, or any fact of a key group a delta fact falls in; on the
// pre-apply instance a removed fact under a positive literal. Every other assignment keeps its witness. A reached
// tuple is certain if its anchored witnesses already cover, stays out if
// only the pre-apply instance reached it and it was not certain, and is
// otherwise decided by one head-bound probe. The changes are spliced into
// a fresh copy of the answer list and returned as the exact diff; no index
// over candidates or witnesses is kept. The work is the anchored joins, in
// which a touched key group anchors every one of its facts: far below a
// pass over the instance while key groups are small, but dearer than one
// when a touched group spans its relation.
package direct

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/relational"
)

// ErrScope is the sentinel wrapped by every ScopeError: the constraint set
// (or semantics) is outside the direct engine's FD-only scope and must be
// routed to a repair engine.
var ErrScope = errors.New("constraint set outside the direct engine's FD-only scope")

// ScopeError reports why a set was rejected. It unwraps to ErrScope so
// callers can route on errors.Is(err, direct.ErrScope).
type ScopeError struct {
	// Reason names the first disqualifier, e.g. a non-FD constraint or a
	// NOT NULL-constraint.
	Reason string
}

func (e *ScopeError) Error() string {
	return fmt.Sprintf("direct engine: %s", e.Reason)
}

// Unwrap makes errors.Is(err, ErrScope) hold.
func (e *ScopeError) Unwrap() error { return ErrScope }

// Status classifies a fact of D with respect to the repair set (the
// paper's true/inconsistent cases; a fact absent from D is in no repair).
type Status uint8

const (
	// True: the fact is in every repair (exempt, unconstrained relation, or
	// sole class of its group).
	True Status = iota
	// Inconsistent: the fact is in exactly the repairs that choose its
	// class for its conflict group.
	Inconsistent
)

// group is one FD key group: class counts keyed by the dependent value's
// content encoding, and their sum. Exempt tuples are never counted.
type group struct {
	classes map[string]int
	size    int
}

// fdRel is the classification of one FD-constrained relation.
type fdRel struct {
	fd     constraint.FuncDep
	groups map[string]*group
}

// Stats counts classification and answering work, for tests pinning the
// O(|Δ|) contract.
type Stats struct {
	// InitialFacts is the number of facts scanned by New.
	InitialFacts int
	// DeltaFacts is the number of delta facts processed by Update since New.
	DeltaFacts int
	// FullPasses counts the CertainCtx and PossibleCtx calls: each
	// enumerates every assignment of the query over the instance.
	FullPasses int
	// TuplesReached counts, summed over Patch calls, the distinct tuples an
	// anchored assignment reached (the only tuples whose status can change).
	TuplesReached int
	// Probes counts the head-bound probes Patch ran for reached tuples it
	// could not settle from their anchored witnesses and prior status.
	Probes int
}

// Engine holds the live classification of one instance under an FD-only
// set. It retains no reference to the instance: New scans it once, Update
// keeps the counts current, and the answering entry points take the
// instance to read from explicitly.
type Engine struct {
	set        *constraint.Set
	fds        map[relational.RelKey]*fdRel
	conflicted map[*group]struct{}
	// pairs is Σ_g (N_g² − Σ_c n_c²) over the key groups, N_g a group's
	// size and n_c its class counts: the ordered pairs of tuples of one
	// group in different classes, which are exactly the FD violations
	// (ViolationCount).
	pairs     int
	stats     Stats
	maxStates int
}

// New analyzes the set and classifies d. It fails with a *ScopeError
// (wrapping ErrScope) unless the set is FD-only with at most one FD per
// relation (constraint.Analyze).
func New(d *relational.Instance, set *constraint.Set) (*Engine, error) {
	an := constraint.Analyze(set)
	if !an.FDOnly {
		return nil, &ScopeError{Reason: an.Reason}
	}
	e := &Engine{
		set:        set,
		fds:        make(map[relational.RelKey]*fdRel, len(an.FDs)),
		conflicted: map[*group]struct{}{},
	}
	for _, fd := range an.FDs {
		e.fds[relational.RelKey{Pred: fd.Pred, Arity: fd.Arity}] = &fdRel{fd: fd, groups: map[string]*group{}}
	}
	for rk, fr := range e.fds {
		d.Scan(rk.Pred, rk.Arity, nil, func(t relational.Tuple) bool {
			e.stats.InitialFacts++
			e.add(fr, t)
			return true
		})
	}
	return e, nil
}

// SetMaxStates bounds the covering check of each candidate answer: a
// candidate whose check branches through more than n nodes fails the query
// with repair.ErrStateLimit. n ≤ 0 means repair.DefaultMaxStates, as in the
// repair search, which is also the bound before any call.
func (e *Engine) SetMaxStates(n int) { e.maxStates = n }

// exempt reports whether a tuple has null in a key or dependent position
// of fd, in which case it never participates in a conflict (Definition 4:
// a relevant attribute is null, so the constraint is exempt on it).
func exempt(fd constraint.FuncDep, t relational.Tuple) bool {
	if t[fd.DepPos].IsNull() {
		return true
	}
	for _, p := range fd.KeyPos {
		if t[p].IsNull() {
			return true
		}
	}
	return false
}

// groupClass appends the key-group encoding of a non-exempt tuple under fd
// to buf and then its class encoding, and returns the two as sub-slices of
// the result, so that a caller passing a stack buffer allocates nothing to
// look a tuple up.
func groupClass(fd constraint.FuncDep, t relational.Tuple, buf []byte) (gk, ck []byte) {
	for _, p := range fd.KeyPos {
		buf = t[p].AppendKey(buf)
	}
	n := len(buf)
	buf = t[fd.DepPos].AppendKey(buf)
	return buf[:n], buf[n:]
}

// keyBuf sizes the stack buffer a group and class encoding is built in;
// longer keys spill to the heap.
const keyBuf = 64

// add counts one tuple of fr's relation into its group/class, maintaining
// the conflicted set across the 1 → 2 class transition and the violating
// pairs: the tuple pairs with each of the N_g − n_c tuples of its group
// outside its class, in both orders.
func (e *Engine) add(fr *fdRel, t relational.Tuple) {
	if exempt(fr.fd, t) {
		return
	}
	var buf [keyBuf]byte
	gk, ck := groupClass(fr.fd, t, buf[:0])
	g := fr.groups[string(gk)]
	if g == nil {
		g = &group{classes: map[string]int{}}
		fr.groups[string(gk)] = g
	}
	n := g.classes[string(ck)]
	e.pairs += 2 * (g.size - n)
	g.size++
	g.classes[string(ck)] = n + 1
	if n == 0 && len(g.classes) == 2 {
		e.conflicted[g] = struct{}{}
	}
}

// remove undoes add, maintaining the conflicted set across the 2 → 1 class
// transition and dropping emptied classes and groups.
func (e *Engine) remove(fr *fdRel, t relational.Tuple) {
	if exempt(fr.fd, t) {
		return
	}
	var buf [keyBuf]byte
	gk, ck := groupClass(fr.fd, t, buf[:0])
	g := fr.groups[string(gk)]
	if g == nil {
		return
	}
	n := g.classes[string(ck)]
	if n == 0 {
		return
	}
	e.pairs -= 2 * (g.size - n)
	g.size--
	if n > 1 {
		g.classes[string(ck)] = n - 1
		return
	}
	delete(g.classes, string(ck))
	if len(g.classes) == 1 {
		delete(e.conflicted, g)
	}
	if len(g.classes) == 0 {
		delete(fr.groups, string(gk))
	}
}

// Update applies a delta to the classification in O(|Δ|): only the groups
// of the delta's own facts are touched, never the instance. The delta must
// be effective (already deduplicated against the instance, as
// relational.Head.Apply returns it).
func (e *Engine) Update(dl relational.Delta) {
	for _, f := range dl.Removed {
		if fr := e.fds[relational.RelKey{Pred: f.Pred, Arity: len(f.Args)}]; fr != nil {
			e.stats.DeltaFacts++
			e.remove(fr, f.Args)
		}
	}
	for _, f := range dl.Added {
		if fr := e.fds[relational.RelKey{Pred: f.Pred, Arity: len(f.Args)}]; fr != nil {
			e.stats.DeltaFacts++
			e.add(fr, f.Args)
		}
	}
}

// classify returns the status of a fact assumed present in D, plus its
// conflict group and class when inconsistent. Only an inconsistent fact's
// class encoding is allocated.
func (e *Engine) classify(f relational.Fact) (Status, *group, string) {
	fr := e.fds[relational.RelKey{Pred: f.Pred, Arity: len(f.Args)}]
	if fr == nil {
		return True, nil, ""
	}
	if exempt(fr.fd, f.Args) {
		return True, nil, ""
	}
	var buf [keyBuf]byte
	gk, ck := groupClass(fr.fd, f.Args, buf[:0])
	g := fr.groups[string(gk)]
	if g == nil || len(g.classes) < 2 {
		return True, nil, ""
	}
	return Inconsistent, g, string(ck)
}

// Consistent reports whether the classified instance satisfies the set
// (no conflicted group).
func (e *Engine) Consistent() bool { return len(e.conflicted) == 0 }

// ViolationCount returns the number of violations of the set on the
// classified instance, in O(1). Under Definition 4 an FD R(x̄, y, w̄),
// R(x̄, y′, w̄′) → y = y′ is violated exactly by the assignments that send
// its two atoms to two non-exempt tuples of one key group with different
// dependent values. Each such ordered pair of tuples is one assignment
// (the payload variables occur once, so distinct tuples give distinct
// assignments), so the count is Σ_g (N_g² − Σ_c n_c²).
func (e *Engine) ViolationCount() int { return e.pairs }

// NumRepairs returns the exact repair count ∏_g |classes(g)| over the
// conflicted groups, saturating at math.MaxInt.
func (e *Engine) NumRepairs() int {
	n := 1
	for g := range e.conflicted {
		k := len(g.classes)
		if n > math.MaxInt/k {
			return math.MaxInt
		}
		n *= k
	}
	return n
}

// Stats returns the classification work counters.
func (e *Engine) Stats() Stats { return e.stats }
