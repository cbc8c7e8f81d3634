// Package repair implements Section 4 of the paper: the refined repair
// order ≤_D of Definition 6, the repair notion of Definition 7 (consistency
// wrt |=_N plus ≤_D-minimality), the deletion-preferring class Rep_d for
// conflicting NNCs, and — as the baseline the paper compares against — the
// classic repair semantics of Arenas, Bertossi & Chomicki (PODS 99, the
// paper's [2]) with active-domain insertions and plain ⊆-minimality of the
// symmetric difference.
//
// Repairs are enumerated by a violation-driven search (see search.go) whose
// termination follows from Proposition 1: every reachable instance lives in
// the finite space over adom(D) ∪ const(IC) ∪ {null}.
package repair

import (
	"sort"

	"repro/internal/constraint"
	"repro/internal/nullsem"
	"repro/internal/relational"
	"repro/internal/value"
)

// LeqD implements the intended reading of Definition 6: D1 ≤_D D2 iff
//
//	(a) every atom of Δ(D,D1) without nulls, and every *deleted* atom with
//	    nulls, occurs identically in Δ(D,D2); and
//	(b) every *inserted* atom Q(ā) of Δ(D,D1) containing nulls is matched
//	    in Δ(D,D2) either by the identical atom, or by an inserted atom
//	    not in Δ(D,D1) that agrees with Q(ā) on its non-null positions.
//
// Two refinements over the letter of Definition 6 are needed to reproduce
// the repair sets the paper states for Examples 16–18 (both are exercised
// by discriminating unit tests and the brute-force cross-check):
//
//   - the identical atom counts as its own match (the literal "∉ Δ(D,D′)"
//     exclusion alone makes ≤_D irreflexive, and leaves instances with
//     gratuitous extra deletions incomparable to, rather than dominated by,
//     proper repairs);
//   - matching is directional: inserted null atoms are matched against
//     insertions only (the literal reading lets a *deleted* original atom
//     pattern-match an insertion), and deletions always match exactly.
//
// See LeqDLiteral for the verbatim text; DESIGN.md records the deviation.
func LeqD(d, d1, d2 *relational.Instance) bool {
	return LeqDDeltas(relational.Diff(d, d1), relational.Diff(d, d2))
}

// LeqDDeltas is LeqD on precomputed symmetric differences dl1 = Δ(D, D1)
// and dl2 = Δ(D, D2). Streaming consumers (the Antichain) compute each
// candidate's delta once and compare deltas directly instead of re-diffing
// per pair.
func LeqDDeltas(dl1, dl2 relational.Delta) bool {
	removed2 := factSet(dl2.Removed)
	added1 := factSet(dl1.Added)
	added2 := factSet(dl2.Added)

	for _, f := range dl1.Removed {
		if !removed2[f.Key()] {
			return false
		}
	}
	for _, f := range dl1.Added {
		if !f.Args.HasNull() {
			if !added2[f.Key()] {
				return false
			}
			continue
		}
		if added2[f.Key()] {
			continue // the identical insertion
		}
		if !hasPatternMatch(f, dl2.Added, added1) {
			return false
		}
	}
	return true
}

// LessD is the strict order: D1 <_D D2 iff D1 ≤_D D2 and not D2 ≤_D D1.
func LessD(d, d1, d2 *relational.Instance) bool {
	return LeqD(d, d1, d2) && !LeqD(d, d2, d1)
}

// LeqDLiteral is the letter of Definition 6: condition (b) requires a
// matching atom outside Δ(D,D1), and applies to every null-containing atom
// of the symmetric difference (inserted or deleted). Kept for documentation
// and tests; the repair machinery uses LeqD.
func LeqDLiteral(d, d1, d2 *relational.Instance) bool {
	dl1, dl2 := relational.Diff(d, d1), relational.Diff(d, d2)
	delta1 := deltaSet(dl1)
	delta2 := append(append([]relational.Fact(nil), dl2.Removed...), dl2.Added...)
	delta2Set := deltaSet(dl2)

	check := func(f relational.Fact) bool {
		if !f.Args.HasNull() {
			return delta2Set[f.Key()]
		}
		return hasPatternMatch(f, delta2, delta1)
	}
	for _, f := range dl1.Removed {
		if !check(f) {
			return false
		}
	}
	for _, f := range dl1.Added {
		if !check(f) {
			return false
		}
	}
	return true
}

// hasPatternMatch reports whether some candidate agrees with f on f's
// non-null positions (same predicate and arity), excluding candidates whose
// key appears in excluded.
func hasPatternMatch(f relational.Fact, candidates []relational.Fact, excluded map[string]bool) bool {
	for _, g := range candidates {
		if g.Pred != f.Pred || len(g.Args) != len(f.Args) {
			continue
		}
		if excluded != nil && excluded[g.Key()] {
			continue
		}
		ok := true
		for i, v := range f.Args {
			if !v.IsNull() && !g.Args[i].Eq(v) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func factSet(fs []relational.Fact) map[string]bool {
	m := make(map[string]bool, len(fs))
	for _, f := range fs {
		m[f.Key()] = true
	}
	return m
}

// deltaSet is the key set of both halves of a symmetric difference, built
// without materializing (and sorting) a merged fact slice.
func deltaSet(dl relational.Delta) map[string]bool {
	m := make(map[string]bool, dl.Size())
	for _, f := range dl.Removed {
		m[f.Key()] = true
	}
	for _, f := range dl.Added {
		m[f.Key()] = true
	}
	return m
}

// SubsetDelta is the classic order of the paper's [2]: Δ(D,D1) ⊆ Δ(D,D2)
// as plain sets of atoms.
func SubsetDelta(d, d1, d2 *relational.Instance) bool {
	return SubsetDeltas(relational.Diff(d, d1), relational.Diff(d, d2))
}

// SubsetDeltas is SubsetDelta on precomputed symmetric differences.
func SubsetDeltas(dl1, dl2 relational.Delta) bool {
	set2 := deltaSet(dl2)
	for _, f := range dl1.Removed {
		if !set2[f.Key()] {
			return false
		}
	}
	for _, f := range dl1.Added {
		if !set2[f.Key()] {
			return false
		}
	}
	return true
}

// Ordering compares two candidate repaired instances relative to the
// original d.
type Ordering func(d, d1, d2 *relational.Instance) bool

// deltaOrder returns the mode's ≤ comparison on precomputed deltas.
func deltaOrder(mode Mode) func(dl1, dl2 relational.Delta) bool {
	if mode == Classic {
		return SubsetDeltas
	}
	return LeqDDeltas
}

// Antichain is the online form of MinimalUnder: it consumes a stream of
// distinct consistent leaves and maintains, at every point, the subset that
// is minimal among the leaves seen so far under the mode's order. Dominated
// leaves are remembered (a non-minimal leaf can still dominate a later one —
// MinimalUnder compares against every candidate, not only the minimal ones,
// and ≤_D transitivity is a tested property, not an assumption), so the
// final minimal set is exactly MinimalUnder over the whole stream, no matter
// in which order the leaves arrive. Each leaf's Δ(D, leaf) is
// computed once on entry — together with its per-fact key encodings, key
// sets, and fact fingerprints — and cached for every later comparison and
// for Result.Deltas.
//
// Add does not compare the new leaf against every stored entry. Both orders
// require, as a necessary condition for a ≤ b, that a's exact-match
// obligations (all removals plus, under ≤_D, the null-free additions; under
// ⊆-Δ every delta atom) appear identically in b. The antichain therefore
// keeps inverted posting lists from per-fact fingerprints (Fact.Hash) to the
// entries obligated on — or containing — that fact, and each Add makes one
// counting pass over the new delta's fingerprints: an entry can precede the
// candidate only if its obligation count is fully met, and can follow it
// only if the candidate's own obligations are all found in the entry.
// Fingerprint collisions merely overcount (the filters test >=), so the
// survivors of the count filter are confirmed with the exact comparators;
// entries with no obligations at all ("wild": pure null-insertion or empty
// deltas) sit on a side list that is always confirmed pairwise, and a
// candidate with no obligations of its own falls back to the full scan. The
// per-Add cost thus scales with the entries sharing facts with the new
// delta, not with the antichain size.
//
// Antichain is not safe for concurrent use.
type Antichain struct {
	d            *relational.Instance
	classic      bool
	entries      []acEntry
	minimalCount int

	// noIndex forces the pairwise reference path (differential tests).
	noIndex bool

	// Inverted index: fact fingerprint → entries obligated on that fact.
	// Under ≤_D the roles are separate (invRem for removals, invAdd for
	// null-free additions — a null-free key can only ever match a null-free
	// key, so null-containing additions need no posting lists); the classic
	// order uses the single role-blind invUnion. wild lists entries with
	// zero obligations.
	invRem   map[uint64][]int32
	invAdd   map[uint64][]int32
	invUnion map[uint64][]int32
	wild     []int32

	// Counting-pass scratch, reused across Adds: cnt[i]/mark[i] are live for
	// entry i iff mark[i] == gen; touched lists the live indices in
	// first-touch order.
	cnt     []acCount
	mark    []uint32
	gen     uint32
	touched []int32
}

type acEntry struct {
	inst      *relational.Instance
	view      *deltaView
	dominated bool
}

// deltaView is a delta with its comparison artifacts precomputed: the key of
// every fact (keys are interner round-trips, the hot cost of ≤_D), the key
// sets both orders probe, and the per-fact fingerprints the antichain's
// inverted index buckets by.
type deltaView struct {
	dl          relational.Delta
	removedKeys []string        // aligned with dl.Removed
	addedKeys   []string        // aligned with dl.Added
	addedNull   []bool          // aligned with dl.Added: Args.HasNull()
	removedSet  map[string]bool // keys of dl.Removed
	addedSet    map[string]bool // keys of dl.Added
	removedFps  []uint64        // aligned with dl.Removed: Fact.Hash()
	addedFps    []uint64        // aligned with dl.Added: Fact.Hash()
	reqAdd      int             // additions without nulls (exact-match obligations)
}

func newDeltaView(dl relational.Delta) *deltaView {
	v := &deltaView{
		dl:          dl,
		removedKeys: make([]string, len(dl.Removed)),
		addedKeys:   make([]string, len(dl.Added)),
		addedNull:   make([]bool, len(dl.Added)),
		removedSet:  make(map[string]bool, len(dl.Removed)),
		addedSet:    make(map[string]bool, len(dl.Added)),
		removedFps:  make([]uint64, len(dl.Removed)),
		addedFps:    make([]uint64, len(dl.Added)),
	}
	for i, f := range dl.Removed {
		k := f.Key()
		v.removedKeys[i] = k
		v.removedSet[k] = true
		v.removedFps[i] = f.Hash()
	}
	for i, f := range dl.Added {
		k := f.Key()
		v.addedKeys[i] = k
		v.addedNull[i] = f.Args.HasNull()
		v.addedSet[k] = true
		v.addedFps[i] = f.Hash()
		if !v.addedNull[i] {
			v.reqAdd++
		}
	}
	return v
}

// leqDViews is LeqDDeltas over precomputed views.
func leqDViews(a, b *deltaView) bool {
	for _, k := range a.removedKeys {
		if !b.removedSet[k] {
			return false
		}
	}
	for i := range a.dl.Added {
		k := a.addedKeys[i]
		if !a.addedNull[i] {
			if !b.addedSet[k] {
				return false
			}
			continue
		}
		if b.addedSet[k] {
			continue // the identical insertion
		}
		if !patternMatchViews(a.dl.Added[i], b, a.addedSet) {
			return false
		}
	}
	return true
}

// patternMatchViews is hasPatternMatch against a view's additions, using the
// cached keys for the exclusion test.
func patternMatchViews(f relational.Fact, b *deltaView, excluded map[string]bool) bool {
	for i, g := range b.dl.Added {
		if g.Pred != f.Pred || len(g.Args) != len(f.Args) {
			continue
		}
		if excluded[b.addedKeys[i]] {
			continue
		}
		ok := true
		for p, v := range f.Args {
			if !v.IsNull() && !g.Args[p].Eq(v) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// subsetViews is SubsetDeltas over precomputed views.
func subsetViews(a, b *deltaView) bool {
	for _, k := range a.removedKeys {
		if !b.removedSet[k] && !b.addedSet[k] {
			return false
		}
	}
	for _, k := range a.addedKeys {
		if !b.removedSet[k] && !b.addedSet[k] {
			return false
		}
	}
	return true
}

func (a *Antichain) leq(v1, v2 *deltaView) bool {
	if a.classic {
		return subsetViews(v1, v2)
	}
	return leqDViews(v1, v2)
}

// NewAntichain returns an empty antichain filtering under the given mode's
// order (≤_D for NullBased, ⊆-Δ for Classic) relative to the original d.
func NewAntichain(d *relational.Instance, mode Mode) *Antichain {
	a := &Antichain{d: d, classic: mode == Classic}
	if a.classic {
		a.invUnion = map[uint64][]int32{}
	} else {
		a.invRem = map[uint64][]int32{}
		a.invAdd = map[uint64][]int32{}
	}
	return a
}

// obligations counts a view's exact-match obligations under the antichain's
// order: every removal plus (≤_D) the null-free additions, or (classic)
// every delta atom.
func (a *Antichain) obligations(v *deltaView) int {
	if a.classic {
		return len(v.removedKeys) + len(v.addedKeys)
	}
	return len(v.removedKeys) + v.reqAdd
}

// Add feeds one leaf into the filter. It reports whether the leaf is
// minimal among the leaves seen so far (it may still be displaced by a later
// leaf), plus the previously-minimal leaves this one strictly dominates —
// streaming consumers drop per-candidate state (cached query answers) for
// displaced leaves. Leaves must be distinct; the search guarantees that.
func (a *Antichain) Add(leaf *relational.Instance) (minimal bool, displaced []*relational.Instance) {
	view := newDeltaView(relational.Diff(a.d, leaf))
	var dominated bool
	if a.noIndex || a.obligations(view) == 0 {
		// A candidate with no obligations could sit below any entry; the
		// count filter has no handle on it, so scan (rare: empty or pure
		// null-insertion deltas only).
		dominated, displaced = a.addScan(view)
	} else {
		dominated, displaced = a.addIndexed(view)
	}
	id := int32(len(a.entries))
	a.entries = append(a.entries, acEntry{inst: leaf, view: view, dominated: dominated})
	if !a.noIndex {
		a.indexEntry(id, view)
	}
	if !dominated {
		a.minimalCount++
	}
	return !dominated, displaced
}

// addScan is the pairwise reference path: compare the candidate against
// every stored entry in insertion order.
func (a *Antichain) addScan(view *deltaView) (dominated bool, displaced []*relational.Instance) {
	for i := range a.entries {
		d2, disp := a.compare(&a.entries[i], view)
		dominated = dominated || d2
		if disp != nil {
			displaced = append(displaced, disp)
		}
	}
	return dominated, displaced
}

// compare runs both exact order tests between one stored entry and the
// candidate view, updating the entry's domination state; disp is non-nil
// when the entry was minimal until now and the candidate displaces it.
func (a *Antichain) compare(o *acEntry, view *deltaView) (dominated bool, disp *relational.Instance) {
	oBelow := a.leq(o.view, view)
	cBelow := a.leq(view, o.view)
	if cBelow && !oBelow && !o.dominated {
		o.dominated = true
		a.minimalCount--
		disp = o.inst
	}
	return oBelow && !cBelow, disp
}

// acCount accumulates one counting pass's per-entry intersection sizes.
type acCount struct {
	rem, add, union int32
}

// addIndexed finds the entries comparable to the candidate via the inverted
// index: one counting pass over the candidate's fact fingerprints, then the
// exact comparators on the entries whose obligation counts survive the
// necessary-condition filters. Fingerprint collisions and duplicate postings
// only ever overcount, so the filters test >= and the exact tests decide.
func (a *Antichain) addIndexed(view *deltaView) (dominated bool, displaced []*relational.Instance) {
	for len(a.cnt) < len(a.entries) {
		a.cnt = append(a.cnt, acCount{})
		a.mark = append(a.mark, 0)
	}
	a.gen++
	a.touched = a.touched[:0]
	at := func(id int32) *acCount {
		if a.mark[id] != a.gen {
			a.mark[id] = a.gen
			a.cnt[id] = acCount{}
			a.touched = append(a.touched, id)
		}
		return &a.cnt[id]
	}
	if a.classic {
		for _, fp := range view.removedFps {
			for _, id := range a.invUnion[fp] {
				at(id).union++
			}
		}
		for _, fp := range view.addedFps {
			for _, id := range a.invUnion[fp] {
				at(id).union++
			}
		}
	} else {
		for _, fp := range view.removedFps {
			for _, id := range a.invRem[fp] {
				at(id).rem++
			}
		}
		for i, fp := range view.addedFps {
			if view.addedNull[i] {
				continue // null-containing: never an exact match either way
			}
			for _, id := range a.invAdd[fp] {
				at(id).add++
			}
		}
	}
	// Wild entries (zero obligations) pass the entry-below filter vacuously
	// but own no postings; pull them into the candidate set.
	for _, id := range a.wild {
		at(id)
	}

	// Insertion order keeps the displaced sequence identical to addScan's.
	ids := a.touched
	sort.Slice(ids, func(x, y int) bool { return ids[x] < ids[y] })

	cRem, cAdd := int32(len(view.removedFps)), int32(view.reqAdd)
	cAll := cRem + int32(len(view.addedFps))
	for _, id := range ids {
		o := &a.entries[id]
		cnt := &a.cnt[id]
		var mayBelow, mayAbove bool
		if a.classic {
			mayBelow = int(cnt.union) >= a.obligations(o.view)
			mayAbove = cnt.union >= cAll
		} else {
			mayBelow = int(cnt.rem) >= len(o.view.removedKeys) && int(cnt.add) >= o.view.reqAdd
			mayAbove = cnt.rem >= cRem && cnt.add >= cAdd
		}
		if !mayBelow && !mayAbove {
			continue
		}
		oBelow := mayBelow && a.leq(o.view, view)
		cBelow := mayAbove && a.leq(view, o.view)
		if cBelow && !oBelow && !o.dominated {
			o.dominated = true
			a.minimalCount--
			displaced = append(displaced, o.inst)
		}
		if oBelow && !cBelow {
			dominated = true
		}
	}
	return dominated, displaced
}

// indexEntry posts the new entry's obligations (and classic-mode fact set)
// into the inverted index.
func (a *Antichain) indexEntry(id int32, v *deltaView) {
	if a.classic {
		for _, fp := range v.removedFps {
			a.invUnion[fp] = append(a.invUnion[fp], id)
		}
		for _, fp := range v.addedFps {
			a.invUnion[fp] = append(a.invUnion[fp], id)
		}
	} else {
		for _, fp := range v.removedFps {
			a.invRem[fp] = append(a.invRem[fp], id)
		}
		for i, fp := range v.addedFps {
			if !v.addedNull[i] {
				a.invAdd[fp] = append(a.invAdd[fp], id)
			}
		}
	}
	if a.obligations(v) == 0 {
		a.wild = append(a.wild, id)
	}
}

// MinimalCount returns the current number of surviving candidates.
func (a *Antichain) MinimalCount() int { return a.minimalCount }

// Results returns the surviving candidates in content-canonical order
// (Instance.Compare) with their cached deltas aligned — exactly
// Result.Repairs/Result.Deltas of a completed enumeration, independent of
// the order leaves arrived in.
func (a *Antichain) Results() ([]*relational.Instance, []relational.Delta) {
	idx := make([]int, 0, a.minimalCount)
	for i := range a.entries {
		if !a.entries[i].dominated {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(x, y int) bool {
		return a.entries[idx[x]].inst.Compare(a.entries[idx[y]].inst) < 0
	})
	if len(idx) == 0 {
		return nil, nil
	}
	repairs := make([]*relational.Instance, len(idx))
	deltas := make([]relational.Delta, len(idx))
	for i, j := range idx {
		repairs[i] = a.entries[j].inst
		deltas[i] = a.entries[j].view.dl
	}
	return repairs, deltas
}

// ConfirmLimit bounds the dominator pool ConfirmMinimal is willing to
// enumerate: at most 2^ConfirmLimit candidate instances are checked.
const ConfirmLimit = 12

// ConfirmMinimal reports whether cand — a consistent leaf of the search on
// (d, set) — is provably minimal, i.e. certainly a member of Rep(D, IC)
// even though the enumeration has not finished. The certificate enumerates
// every instance whose delta could strictly precede Δ(d, cand) under the
// mode's order — subsets of cand's removals and additions, extended under
// ≤_D with the null-generalizations of the additions (condition (b) of
// Definition 6 lets an inserted atom with nulls be matched by a more
// specific insertion, so a dominator may generalize one of cand's atoms) —
// and checks that none of them is consistent. Any future leaf strictly below
// cand would be exactly such a consistent instance, so a true result lets
// streaming consumers short-circuit: a boolean certain answer is refuted the
// moment one confirmed-minimal counterexample exists.
//
// A false result promises nothing: the pool may exceed ConfirmLimit, or a
// consistent dominator may exist that the search never reaches. Callers fall
// back to full enumeration in that case, so the final answer is unchanged
// either way.
func ConfirmMinimal(d, cand *relational.Instance, set *constraint.Set, opts Options) bool {
	dl := relational.Diff(d, cand)
	sem := nullsem.NullAware
	if opts.Mode == Classic {
		sem = nullsem.ClassicFO
	}
	leq := deltaOrder(opts.Mode)

	type edit struct {
		f      relational.Fact
		insert bool
	}
	pool := make([]edit, 0, len(dl.Removed)+len(dl.Added))
	for _, f := range dl.Removed {
		pool = append(pool, edit{f: f})
	}
	adds := dl.Added
	if opts.Mode == NullBased {
		var ok bool
		if adds, ok = nullGeneralizations(dl.Added); !ok {
			return false
		}
	}
	for _, f := range adds {
		pool = append(pool, edit{f: f, insert: true})
	}
	if len(pool) > ConfirmLimit {
		return false
	}
	// Each candidate dominator differs from cand — a consistent instance —
	// by only a handful of facts, so its consistency is decided by the
	// Δ-seeded incremental check anchored on cand instead of a full
	// re-evaluation of every constraint: constraints untouched by
	// Δ(cand, d2) are skipped outright. Every violation the anchored check
	// finds is genuine (confirmed on d2), so even if a caller passes an
	// inconsistent cand the certificate can only degrade to a false
	// negative — ConfirmMinimal never wrongly returns true.
	sc := nullsem.NewSetChecker(set, sem)
	for mask := 0; mask < 1<<len(pool); mask++ {
		d2 := d.Clone()
		for b, e := range pool {
			if mask&(1<<b) == 0 {
				continue
			}
			if e.insert {
				d2.Insert(e.f)
			} else {
				d2.Delete(e.f)
			}
		}
		dl2 := relational.Diff(d, d2)
		if !leq(dl2, dl) || leq(dl, dl2) {
			continue // not strictly below cand
		}
		if sc.SatisfiesFrom(d2, relational.Diff(cand, d2)) {
			return false // a consistent strict dominator exists
		}
	}
	return true
}

// nullGeneralizations returns the added atoms together with every variant
// obtained by replacing a subset of positions with null, deduplicated. ok is
// false when the expansion would exceed ConfirmLimit (the caller then skips
// the certificate rather than enumerate an oversized pool).
func nullGeneralizations(added []relational.Fact) ([]relational.Fact, bool) {
	var out []relational.Fact
	seen := newFactDedup(len(added))
	for _, g := range added {
		if len(g.Args) > ConfirmLimit {
			return nil, false
		}
		for mask := 0; mask < 1<<len(g.Args); mask++ {
			args := g.Args.Clone()
			for p := range args {
				if mask&(1<<p) != 0 {
					args[p] = value.Null()
				}
			}
			f := relational.Fact{Pred: g.Pred, Args: args}
			if !seen.add(f) {
				continue
			}
			out = append(out, f)
			if len(out) > ConfirmLimit {
				return nil, false
			}
		}
	}
	return out, true
}

// MinimalUnder returns the candidates that are minimal under the given
// (reflexive) ordering: c is kept iff no other candidate is strictly below
// it. Duplicate instances are collapsed. The result preserves input order.
func MinimalUnder(d *relational.Instance, candidates []*relational.Instance, leq Ordering) []*relational.Instance {
	var uniq []*relational.Instance
	seen := map[string]bool{}
	for _, c := range candidates {
		k := c.Key()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, c)
		}
	}
	var out []*relational.Instance
	for i, c := range uniq {
		minimal := true
		for j, o := range uniq {
			if i == j {
				continue
			}
			if leq(d, o, c) && !leq(d, c, o) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, c)
		}
	}
	return out
}
