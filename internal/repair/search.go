package repair

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/constraint"
	"repro/internal/nullsem"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// Mode selects a repair semantics.
type Mode uint8

const (
	// NullBased is the paper's semantics (Definition 7): referential
	// violations may be fixed by inserting tuples padded with null in the
	// existential positions, and minimality is ≤_D.
	NullBased Mode = iota
	// Classic is the Arenas–Bertossi–Chomicki semantics (the paper's
	// [2]): existential positions range over the active domain and the
	// constraint constants (never null), minimality is ⊆ of the symmetric
	// difference, and IC satisfaction is classical.
	Classic
)

func (m Mode) String() string {
	if m == Classic {
		return "classic"
	}
	return "null-based"
}

// Options configures repair enumeration.
type Options struct {
	// Mode selects the repair semantics. Default NullBased.
	Mode Mode
	// MaxStates bounds the number of distinct search states explored
	// before giving up (0 means DefaultMaxStates). Exceeding it returns
	// ErrStateLimit.
	MaxStates int
	// Seed, when non-nil, supplies the root instance's complete per-IC
	// violation lists so the enumeration resumes from maintained state:
	// an unseeded run checks every IC over the whole instance once, at the
	// root, and a seeded run never does. The lists must be exactly the
	// violations of each IC on the root (in Set.ICs order); they are
	// read, never mutated, so a session can hand over the lists it
	// maintains via nullsem.ICChecker.Update. NNCs are always probed live
	// at the root (FirstViolationNNC is an indexed scan, and keeping them
	// out of the seed avoids pinning a second list order).
	// Repairs/Deltas are unaffected by seeding. Every state's lists
	// descend from the root's, so with seed lists in the checkers' own
	// Violations order the whole run (leaf order, StatesExplored, Leaves)
	// matches an unseeded one.
	Seed *Seed

	// scratchProbe is the test-only ablation of the maintained violation
	// lists: every search node re-checks every constraint from scratch,
	// and Seed is ignored. Repairs and Deltas are byte-identical either
	// way (the two probes agree on whether a state is consistent, and any
	// violation-choice policy enumerates a consistent superset of Rep that
	// the minimality filter reduces to exactly Rep). StatesExplored and
	// Leaves may differ: the probes can pick different, equally valid
	// violations of one state.
	scratchProbe bool
}

// Seed is resumable enumeration state: the root's complete violation lists,
// one per IC in Set.ICs order. See Options.Seed.
type Seed struct {
	Viols [][]nullsem.Violation
}

// DefaultMaxStates bounds the search space when Options.MaxStates is 0.
const DefaultMaxStates = 1 << 20

// ErrStateLimit is returned when the search exceeds Options.MaxStates.
var ErrStateLimit = errors.New("repair: state limit exceeded")

// ErrConflictingSet is returned (wrapped, with the offending conflict named)
// by Repairs and Enumerate when a NullBased run is given a conflicting IC
// set — Section 4's standing assumption is violated and RepairsD must be
// used instead. Match with errors.Is.
var ErrConflictingSet = errors.New("repair: conflicting IC set")

// Result is the outcome of a repair enumeration.
type Result struct {
	// Repairs are the minimal consistent instances, in content-canonical
	// order (Instance.Compare — stable across runs, unlike Key order).
	Repairs []*relational.Instance
	// Deltas are the symmetric differences Δ(D, repair), aligned with
	// Repairs.
	Deltas []relational.Delta
	// StatesExplored counts distinct instances visited by the search.
	StatesExplored int
	// Leaves counts distinct consistent instances reached before the
	// minimality filter.
	Leaves int
}

// Stats summarizes a streaming enumeration.
type Stats struct {
	// StatesExplored counts distinct instances admitted by the search
	// (equal to Result.StatesExplored when the enumeration ran to
	// completion).
	StatesExplored int
	// Leaves counts the consistent leaves delivered to yield.
	Leaves int
}

// Repairs computes Rep(D, IC) under the selected mode. For NullBased it
// requires a non-conflicting set (Section 4's standing assumption); use
// RepairsD for conflicting sets.
func Repairs(d *relational.Instance, set *constraint.Set, opts Options) (Result, error) {
	return RepairsCtx(context.Background(), d, set, opts)
}

// RepairsCtx is Repairs under a context: cancellation aborts the enumeration
// before the next state is expanded and returns ctx.Err(). Leaves found
// before cancellation are discarded — a Result is only returned for
// complete enumerations.
func RepairsCtx(ctx context.Context, d *relational.Instance, set *constraint.Set, opts Options) (Result, error) {
	if opts.Mode == NullBased && !set.NonConflicting() {
		return Result{}, fmt.Errorf("%w (%v); use RepairsD", ErrConflictingSet, set.Conflicts()[0])
	}
	return run(ctx, d, set, opts, nil)
}

// Enumerate runs the violation-driven search and streams every distinct
// consistent leaf — a pre-minimality repair candidate — to yield as it is
// found, instead of materializing the full set first. The search runs on
// the calling goroutine and yields one leaf at a time, in a deterministic
// order; returning false cancels the remaining search, and Enumerate
// returns the stats accumulated so far with a nil error. Feed the leaves to
// an Antichain to recover Rep(D, IC), or short-circuit on a ConfirmMinimal
// certificate without waiting for the enumeration to finish.
//
// Like Repairs, Enumerate requires a non-conflicting set in NullBased mode.
func Enumerate(d *relational.Instance, set *constraint.Set, opts Options, yield func(*relational.Instance) bool) (Stats, error) {
	return EnumerateCtx(context.Background(), d, set, opts, yield)
}

// EnumerateCtx is Enumerate under a context. The context is checked before
// each state is expanded; once it is done no further state is admitted, and
// EnumerateCtx returns ctx.Err(). Leaves already yielded remain valid (each
// is a self-contained consistent instance), but the enumeration is
// incomplete, so antichain post-processing must be abandoned on error.
func EnumerateCtx(ctx context.Context, d *relational.Instance, set *constraint.Set, opts Options, yield func(*relational.Instance) bool) (Stats, error) {
	if opts.Mode == NullBased && !set.NonConflicting() {
		return Stats{}, fmt.Errorf("%w (%v); use RepairsD", ErrConflictingSet, set.Conflicts()[0])
	}
	return enumerate(ctx, d, set, opts, nil, yield)
}

// RepairsD computes the deletion-preferring class Rep_d(D, IC) defined at
// the end of Section 4 for sets with conflicting NNCs: the repairs of D wrt
// IC (with existential positions blocked by NNCs ranging over the active
// domain, per Example 20) that are not strictly dominated by a repair of
// the set IC′ obtained by dropping the conflicting NNCs. For
// non-conflicting sets it coincides with Repairs.
func RepairsD(d *relational.Instance, set *constraint.Set, opts Options) (Result, error) {
	return RepairsDCtx(context.Background(), d, set, opts)
}

// RepairsDCtx is RepairsD under a context (see RepairsCtx for the
// cancellation contract).
func RepairsDCtx(ctx context.Context, d *relational.Instance, set *constraint.Set, opts Options) (Result, error) {
	conflicts := set.Conflicts()
	if len(conflicts) == 0 {
		return RepairsCtx(ctx, d, set, opts)
	}
	conflicted := map[string]bool{}
	for _, c := range conflicts {
		conflicted[c.IC.Name] = true
	}
	full, err := run(ctx, d, set, opts, conflicted)
	if err != nil {
		return Result{}, err
	}
	prime, err := RepairsCtx(ctx, d, dropConflictingNNCs(set), opts)
	if err != nil {
		return Result{}, err
	}
	var res Result
	res.StatesExplored = full.StatesExplored + prime.StatesExplored
	res.Leaves = full.Leaves
	for i, cand := range full.Repairs {
		dominated := false
		for j := range prime.Repairs {
			// Both enumerations cached their deltas; compare those
			// instead of re-diffing per pair (LessD would).
			if LeqDDeltas(prime.Deltas[j], full.Deltas[i]) && !LeqDDeltas(full.Deltas[i], prime.Deltas[j]) {
				dominated = true
				break
			}
		}
		if !dominated {
			res.Repairs = append(res.Repairs, cand)
			res.Deltas = append(res.Deltas, full.Deltas[i])
		}
	}
	return res, nil
}

func dropConflictingNNCs(set *constraint.Set) *constraint.Set {
	bad := map[*constraint.NNC]bool{}
	for _, c := range set.Conflicts() {
		bad[c.NNC] = true
	}
	var keep []*constraint.NNC
	for _, n := range set.NNCs {
		if !bad[n] {
			keep = append(keep, n)
		}
	}
	return constraint.MustSet(set.ICs, keep)
}

// run materializes a full enumeration through the online antichain filter.
func run(ctx context.Context, d *relational.Instance, set *constraint.Set, opts Options, adomICs map[string]bool) (Result, error) {
	ac := NewAntichain(d, opts.Mode)
	stats, err := enumerate(ctx, d, set, opts, adomICs, func(leaf *relational.Instance) bool {
		ac.Add(leaf)
		return true
	})
	if err != nil {
		return Result{}, err
	}
	var res Result
	res.StatesExplored = stats.StatesExplored
	res.Leaves = stats.Leaves
	res.Repairs, res.Deltas = ac.Results()
	return res, nil
}

// enumerate performs the violation-driven search as an explicit work-list
// drained on the calling goroutine. adomICs, when non-nil, names the ICs
// whose existential positions must range over the active domain in addition
// to null (used by RepairsD for conflicting RICs).
//
// Every distinct state is admitted exactly once through a fingerprint +
// Equal memo, so leaves are distinct by construction, and the whole run —
// leaf order, StatesExplored, Leaves, and where a MaxStates limit or a
// cancellation cuts it off — is a function of the input alone.
func enumerate(ctx context.Context, d *relational.Instance, set *constraint.Set, opts Options, adomICs map[string]bool, yield func(*relational.Instance) bool) (Stats, error) {
	s, err := newSearcher(ctx, d, set, opts, adomICs)
	if err != nil {
		return Stats{}, err
	}
	return s.run(yield)
}

// newSearcher seals d and returns a searcher whose work-list holds the root.
func newSearcher(ctx context.Context, d *relational.Instance, set *constraint.Set, opts Options, adomICs map[string]bool) (*searcher, error) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	if opts.Seed != nil && len(opts.Seed.Viols) != len(set.ICs) {
		return nil, fmt.Errorf("repair: seed has %d violation lists for %d ICs", len(opts.Seed.Viols), len(set.ICs))
	}
	sem := nullsem.NullAware
	insertDomain := []value.V{value.Null()}
	if opts.Mode == Classic {
		sem = nullsem.ClassicFO
		insertDomain = nil
	}
	if opts.Mode == Classic || adomICs != nil {
		for _, v := range d.ActiveDomain() {
			insertDomain = append(insertDomain, v)
		}
		for _, t := range set.Constants() {
			insertDomain = append(insertDomain, t.Const)
		}
		insertDomain = dedupValues(insertDomain)
	}

	// Seal the root: every state of the search is an overlay view of this
	// one frozen engine, which is what makes Diff/Equal between states
	// O(|Δ|) instead of O(|D|).
	d.Freeze()

	s := &searcher{
		ctx:          ctx,
		set:          set,
		sem:          sem,
		mode:         opts.Mode,
		insertDomain: insertDomain,
		adomICs:      adomICs,
		memo:         relational.NewInstanceSet(),
		maxStates:    maxStates,
		scratchProbe: opts.scratchProbe,
	}
	if !opts.scratchProbe {
		s.checkers = make([]*nullsem.ICChecker, len(set.ICs))
		for i, ic := range set.ICs {
			s.checkers[i] = nullsem.NewICChecker(ic, sem)
		}
		s.seed = opts.Seed
	}
	if s.admit(d) {
		s.stack = append(s.stack, node{inst: d})
	}
	return s, nil
}

// run drains the work-list depth-first. Cancellation is exact: after yield
// returns false or the context is done, not a single further state is
// admitted, which is what the short-circuit regression tests pin
// StatesExplored against.
func (s *searcher) run(yield func(*relational.Instance) bool) (Stats, error) {
	var stats Stats
	for s.failure == nil {
		if err := s.ctx.Err(); err != nil {
			s.failure = err
			break
		}
		n := len(s.stack)
		if n == 0 {
			break
		}
		cur := s.stack[n-1]
		s.stack = s.stack[:n-1]
		if leaf := s.expand(cur); leaf != nil {
			stats.Leaves++
			if !yield(leaf) {
				break
			}
		}
	}
	if s.failure != nil {
		return Stats{}, s.failure
	}
	stats.StatesExplored = s.memo.Len()
	return stats, nil
}

// searcher is the state of one streaming enumeration: the constraint
// analysis, the work-list, and the visited-state memo.
type searcher struct {
	ctx          context.Context // the enumeration's context; checked by run
	set          *constraint.Set
	sem          nullsem.Semantics
	mode         Mode
	insertDomain []value.V
	adomICs      map[string]bool
	checkers     []*nullsem.ICChecker // cached per-IC analysis (incremental probe)
	scratchProbe bool
	seed         *Seed // root violation lists handed in by a session, if any
	// scratchChecks counts the ICChecker.Violations calls, each a check
	// of one IC over the whole instance.
	scratchChecks int

	memo      *relational.InstanceSet // every admitted state; Len() is StatesExplored
	maxStates int
	stack     []node
	failure   error // ErrStateLimit or the context's error; ends the search
}

// node is one work-list entry: a search state plus the delta that produced
// it and what its parent's probe established, so the state can be probed
// incrementally instead of re-checking every constraint over the whole
// instance.
type node struct {
	inst *relational.Instance
	// df is the single fact this state changed relative to its parent —
	// deleted when del is true, inserted otherwise. Meaningless at the
	// root (snap == nil).
	df  relational.Fact
	del bool
	// snap is the parent's probe snapshot (shared, read-only, by all the
	// parent's children); nil at the root.
	snap *probeSnap
}

// probeSnap is what one expansion learned about its instance's constraint
// status, inherited by the children it pushed.
type probeSnap struct {
	// viols holds the complete violation list of every IC on the parent,
	// in Set.ICs order and deterministic order within each list; the
	// first violation of the first non-empty list is the one the children
	// fix. A list the parent's changed fact could not reach is its own
	// parent's list, shared.
	viols [][]nullsem.Violation
	// nncSat marks the NNCs verified satisfied on the parent. NNCs are
	// probed only once every IC holds, and past the first violated NNC
	// the bits stay unset.
	nncSat bitset
}

// bitset is a minimal fixed-size bit vector over constraint indexes.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// admit registers a candidate state: false if it was already visited or it
// exceeds the state limit (which fails the search), true if the caller
// should push it. Freezing is a no-op on the overlay views Clone makes; it
// re-seals a state whose edits outgrew the base and flattened it back into
// a privately owned engine, so every state and leaf is a view of a frozen
// engine, like the root.
func (s *searcher) admit(next *relational.Instance) bool {
	next.Freeze()
	if !s.memo.Add(next) {
		return false
	}
	if s.memo.Len() > s.maxStates {
		s.failure = ErrStateLimit
		return false
	}
	return true
}

// expand processes one state — the single definition of the search's
// transition relation. A consistent state is returned as a leaf; otherwise
// expand admits and pushes the state's paper-sanctioned successor states,
// which inherit this probe's snapshot so they can be probed incrementally,
// and returns nil.
func (s *searcher) expand(cur node) *relational.Instance {
	viol, nncViol, snap, bad := s.probe(cur)
	if !bad {
		return cur.inst
	}
	for _, next := range fixes(cur.inst, viol, nncViol, s.mode, s.insertDomain, s.adomICs) {
		next.snap = snap
		if s.admit(next.inst) {
			s.stack = append(s.stack, next)
		} else if s.failure != nil {
			return nil
		}
	}
	return nil
}

// probe decides a state's status: its first violation, if any, plus the
// snapshot its children inherit. Under Options.scratchProbe every state is
// probed from scratch. Otherwise the snapshot carries every IC's complete
// violation list down the work-list:
//
//   - at the root the lists are the seed's (Options.Seed), or one scratch
//     ICChecker.Violations per IC when there is none;
//   - every other state differs from its parent by one fact, so it
//     advances, with ICChecker.Update, only the lists of the ICs that
//     mention that fact's predicate (survivors are filtered in order,
//     newly created violations are found by joins anchored on the fact),
//     and shares its parent's list for every other IC.
//
// No state after the root checks an IC over the whole instance. NNCs are
// probed once every IC holds: an NNC the parent verified stays satisfied
// unless the state inserted a fact with null in its column, and any other
// is probed by FirstViolationNNC's indexed scan.
//
// The two probes agree exactly on whether a state is consistent; they may
// pick different violations of an inconsistent state (the maintained lists
// keep survivors in inherited order, the scratch join re-enumerates in
// instance order), which is covered by the policy-independence contract
// documented on Options.scratchProbe.
func (s *searcher) probe(nd node) (*nullsem.Violation, *nullsem.NNCViolation, *probeSnap, bool) {
	if s.scratchProbe {
		viol, nncViol, bad := firstViolation(nd.inst, s.set, s.sem)
		return viol, nncViol, nil, bad
	}
	d := nd.inst
	snap := &probeSnap{viols: make([][]nullsem.Violation, len(s.checkers)), nncSat: newBitset(len(s.set.NNCs))}
	switch {
	case nd.snap != nil:
		delta := relational.Delta{Added: []relational.Fact{nd.df}}
		if nd.del {
			delta = relational.Delta{Removed: []relational.Fact{nd.df}}
		}
		for i, ck := range s.checkers {
			snap.viols[i] = nd.snap.viols[i]
			if ck.SharesPred(nd.df.Pred) {
				snap.viols[i] = ck.Update(d, snap.viols[i], delta)
			}
		}
	case s.seed != nil:
		copy(snap.viols, s.seed.Viols)
	default:
		for i, ck := range s.checkers {
			snap.viols[i] = ck.Violations(d)
		}
		s.scratchChecks += len(s.checkers)
	}
	for _, vs := range snap.viols {
		if len(vs) > 0 {
			return &vs[0], nil, snap, true
		}
	}
	for j, n := range s.set.NNCs {
		if nd.snap != nil && nd.snap.nncSat.has(j) {
			// NNC satisfaction is per-fact: a deletion, or an insertion
			// of another relation or with a non-null constrained column,
			// cannot violate it.
			if nd.del || nd.df.Pred != n.Pred || len(nd.df.Args) != n.Arity || !nd.df.Args[n.Pos].IsNull() {
				snap.nncSat.set(j)
				continue
			}
			return nil, &nullsem.NNCViolation{NNC: n, Fact: nd.df}, snap, true
		}
		if f, found := nullsem.FirstViolationNNC(d, n); found {
			return nil, &nullsem.NNCViolation{NNC: n, Fact: f}, snap, true
		}
		snap.nncSat.set(j)
	}
	return nil, nil, nil, false
}

// firstViolation returns a deterministic first violation of the set, if
// any: either an IC violation or an NNC violation. The probes stop at the
// first falsifying assignment instead of materializing every violation.
func firstViolation(d *relational.Instance, set *constraint.Set, sem nullsem.Semantics) (*nullsem.Violation, *nullsem.NNCViolation, bool) {
	for _, ic := range set.ICs {
		if v, ok := nullsem.FirstViolationIC(d, ic, sem); ok {
			return &v, nil, true
		}
	}
	for _, n := range set.NNCs {
		if f, ok := nullsem.FirstViolationNNC(d, n); ok {
			return nil, &nullsem.NNCViolation{NNC: n, Fact: f}, true
		}
	}
	return nil, nil, false
}

// fixes returns the paper-sanctioned successor states for one violation:
// delete one antecedent support atom, or insert one instantiated consequent
// atom (existential positions drawn from insertDomain — {null} in the
// paper's semantics). Each successor records its one-fact delta so the
// expansion can probe it incrementally.
func fixes(cur *relational.Instance, viol *nullsem.Violation, nncViol *nullsem.NNCViolation, mode Mode, insertDomain []value.V, adomICs map[string]bool) []node {
	var out []node
	if nncViol != nil {
		next := cur.Clone()
		next.Delete(nncViol.Fact)
		return []node{{inst: next, df: nncViol.Fact, del: true}}
	}

	seen := newFactDedup(len(viol.Support))
	for _, f := range viol.Support {
		if !seen.add(f) {
			continue
		}
		next := cur.Clone()
		next.Delete(f)
		out = append(out, node{inst: next, df: f, del: true})
	}

	domain := insertDomain
	if mode == NullBased && adomICs != nil && !adomICs[viol.IC.Name] {
		// Rep_d search: only conflicted ICs use the extended domain.
		domain = []value.V{value.Null()}
	}
	for _, head := range viol.IC.Head {
		for _, f := range instantiations(head, viol.Subst, domain) {
			if cur.Has(f) {
				// The consequent instantiation is already present: the
				// "successor" is the current state itself, which has
				// already been admitted — skip it before paying for a
				// clone or a memo round-trip.
				continue
			}
			next := cur.Clone()
			next.Insert(f)
			out = append(out, node{inst: next, df: f, del: false})
		}
	}
	return out
}

// factDedup is a small dedup set keyed by the interned fact hash with Equal
// confirmation — no string keys on the hot path.
type factDedup struct {
	m map[uint64][]relational.Fact
}

func newFactDedup(capacity int) factDedup {
	return factDedup{m: make(map[uint64][]relational.Fact, capacity)}
}

// add inserts f, reporting whether it was new.
func (s factDedup) add(f relational.Fact) bool {
	h := f.Hash()
	for _, g := range s.m[h] {
		if g.Equal(f) {
			return false
		}
	}
	s.m[h] = append(s.m[h], f)
	return true
}

// instantiations grounds a head atom under the antecedent substitution,
// with each distinct existential variable ranging over domain.
func instantiations(head term.Atom, subst term.Subst, domain []value.V) []relational.Fact {
	var existVars []string
	seen := map[string]bool{}
	for _, t := range head.Args {
		if t.IsVar() {
			if _, bound := subst[t.Var]; !bound && !seen[t.Var] {
				seen[t.Var] = true
				existVars = append(existVars, t.Var)
			}
		}
	}
	assign := make(map[string]value.V, len(existVars))
	var out []relational.Fact
	var rec func(i int)
	rec = func(i int) {
		if i == len(existVars) {
			args := make(relational.Tuple, len(head.Args))
			for j, t := range head.Args {
				switch {
				case !t.IsVar():
					args[j] = t.Const
				default:
					if v, ok := subst[t.Var]; ok {
						args[j] = v
					} else {
						args[j] = assign[t.Var]
					}
				}
			}
			out = append(out, relational.Fact{Pred: head.Pred, Args: args})
			return
		}
		for _, v := range domain {
			assign[existVars[i]] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// dedupValues collapses duplicate constants (value.V is comparable, so the
// values key the map directly).
func dedupValues(vs []value.V) []value.V {
	seen := make(map[value.V]bool, len(vs))
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// IsRepair reports whether cand belongs to Rep(D, IC) under the options:
// cand must be reached as a consistent leaf and no leaf may strictly precede
// it (the search is complete over the finite Proposition 1 domain). The
// check rides the streaming API and short-circuits: it answers false the
// moment any leaf strictly dominates cand, and true the moment cand itself
// is emitted with a ConfirmMinimal certificate — without waiting for the
// rest of the enumeration.
func IsRepair(d *relational.Instance, set *constraint.Set, cand *relational.Instance, opts Options) (bool, error) {
	return IsRepairCtx(context.Background(), d, set, cand, opts)
}

// IsRepairCtx is IsRepair under a context: cancellation aborts the
// underlying enumeration and returns ctx.Err().
func IsRepairCtx(ctx context.Context, d *relational.Instance, set *constraint.Set, cand *relational.Instance, opts Options) (bool, error) {
	sem := nullsem.NullAware
	if opts.Mode == Classic {
		sem = nullsem.ClassicFO
	}
	if !nullsem.Satisfies(cand, set, sem) {
		return false, nil
	}
	leq := deltaOrder(opts.Mode)
	candDelta := relational.Diff(d, cand)
	found, confirmed, dominated := false, false, false
	_, err := EnumerateCtx(ctx, d, set, opts, func(leaf *relational.Instance) bool {
		if leaf.Equal(cand) {
			found = true
			if ConfirmMinimal(d, cand, set, opts) {
				confirmed = true
				return false
			}
			return true
		}
		dl := relational.Diff(d, leaf)
		if leq(dl, candDelta) && !leq(candDelta, dl) {
			dominated = true
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return confirmed || (found && !dominated), nil
}
