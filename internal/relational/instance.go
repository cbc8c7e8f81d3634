package relational

import (
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/value"
)

// Instance is a finite database instance: a set of ground atoms.
// The zero value is not usable; call NewInstance.
//
// Physically an Instance is either the owner of an engine (the common case
// for freshly built databases) or a copy-on-write overlay over a frozen
// engine: a base plus per-relation Δadd/Δdel maps. Clone returns an overlay
// in O(|Δ|), so the repair search pays for the atoms it changes, not for the
// whole database; Diff between two views of the same base is likewise
// computed from the deltas alone. An overlay whose edits come to dominate
// its base is flattened back into a privately owned engine.
//
// A single Instance view is not safe for concurrent use, even read-only:
// logically read-only operations lazily build and cache per-view state
// (sorted fact caches). Distinct views of one frozen engine, however, may be
// read concurrently from many goroutines — the shared engine's lazy index
// and sorted-fact builds are internally synchronized once frozen (see
// Freeze), so each goroutine may own private overlay views while all of
// them read the same base.
type Instance struct {
	eng *engine

	// deltas is nil while the instance owns its engine and writes to it
	// directly. Once the instance participates in a Clone, the engine is
	// frozen and all views (including this one) write to deltas.
	deltas map[RelKey]*delta
	dorder []RelKey // first-touch order of deltas, for deterministic iteration
	size   int
	fp     uint64

	deltaN int // total entries across all delta maps; triggers flattening

	gen        int // bumped on every mutation; guards factsCache and deltaCache
	factsCache []Fact
	factsGen   int

	deltaCache Delta // sorted overlay delta, rebuilt when deltaGen falls behind
	deltaGen   int
	deltaOK    bool
}

// delta is the overlay Δ of one relation: added tuples (with their insertion
// order) and deleted base tuples, both keyed by tuple key. Deleting an added
// tuple tombstones its add entry (nil tuple) instead of removing it, so the
// key's addOrder slot stays unique and a later re-add revives the slot
// rather than duplicating it; addN counts the live (non-tombstoned) adds, so
// the tombstones number len(addOrder) - addN. Tombstones stay bounded by the
// live adds: a copy (clone) keeps only live adds, and Delete compacts a
// private delta once tombstones dominate (tombstonesDominate, the rule the
// base stores use too), so an insert/undo stream leaves O(live adds)
// entries however long it runs. A key re-added after its tombstone was
// dropped takes a new slot, last in the relation's overlay order.
type delta struct {
	add      map[string]Tuple
	addOrder []string
	addN     int
	del      map[string]Tuple

	// shared is set when a Clone makes a second view reference this object
	// (the clone shallow-copies the rk -> *delta map). A shared delta is
	// immutable: writers copy it first (deltaFor). The flag never reverts —
	// a copy starts private — so a true value is stable, while false
	// implies a single referencing view. It is atomic because concurrent
	// Clones of one instance are allowed (reads of a frozen view), and
	// each would publish the flag.
	shared atomic.Bool
}

func newDelta() *delta {
	return &delta{add: map[string]Tuple{}, del: map[string]Tuple{}}
}

// clone copies the live adds, in addOrder order, and the deletions; the
// copy has no tombstones.
func (dl *delta) clone() *delta {
	c := &delta{del: make(map[string]Tuple, len(dl.del)), addN: dl.addN}
	c.add, c.addOrder = dl.liveAdds()
	for k, t := range dl.del {
		c.del[k] = t
	}
	return c
}

// liveAdds returns fresh copies of the live adds and their order. Compaction
// swaps them in for add and addOrder, so a Scan or ForEach still ranging over
// the old order runs on and skips the keys the new add map lacks.
func (dl *delta) liveAdds() (map[string]Tuple, []string) {
	add := make(map[string]Tuple, dl.addN)
	order := make([]string, 0, dl.addN)
	for _, k := range dl.addOrder {
		if t := dl.add[k]; t != nil {
			add[k] = t
			order = append(order, k)
		}
	}
	return add, order
}

// NewInstance returns an empty instance, optionally populated with facts.
func NewInstance(facts ...Fact) *Instance {
	d := &Instance{eng: newEngine()}
	for _, f := range facts {
		d.Insert(f)
	}
	return d
}

func (d *Instance) overlay() bool { return d.deltas != nil }

// deltaFor returns the relation's delta for writing: a missing entry is
// allocated when create is set, and an entry shared with another view (see
// Clone) is copied first, so mutations never leak across views.
func (d *Instance) deltaFor(rk RelKey, create bool) *delta {
	dl, ok := d.deltas[rk]
	if !ok {
		if !create {
			return nil
		}
		dl = newDelta()
		d.deltas[rk] = dl
		d.dorder = append(d.dorder, rk)
		return dl
	}
	if dl.shared.Load() {
		dl = dl.clone()
		d.deltas[rk] = dl
	}
	return dl
}

// Insert adds a fact (set semantics: duplicates are absorbed). It reports
// whether the fact was new.
func (d *Instance) Insert(f Fact) bool {
	if !d.overlay() {
		if !d.eng.insert(f) {
			return false
		}
		d.size, d.fp = d.eng.size, d.eng.fp
		d.gen++
		return true
	}
	rk := RelKey{f.Pred, len(f.Args)}
	key := f.Args.Key()
	if dl := d.deltas[rk]; dl != nil {
		if t, ok := dl.del[key]; ok { // restore a deleted base fact
			delete(d.deltaFor(rk, false).del, key)
			d.deltaN--
			d.size++
			d.fp ^= factHash(Fact{Pred: f.Pred, Args: t})
			d.gen++
			return true
		}
		if t, ok := dl.add[key]; ok && t != nil {
			return false
		}
	}
	if d.eng.has(rk, key) {
		// No-op inserts never allocate a delta for the relation, so the
		// cached fast paths of untouched relations stay available.
		return false
	}
	dl := d.deltaFor(rk, true)
	if _, tombstoned := dl.add[key]; tombstoned {
		dl.add[key] = f.Args.Clone() // revive: the addOrder slot exists
	} else {
		dl.add[key] = f.Args.Clone()
		dl.addOrder = append(dl.addOrder, key)
	}
	dl.addN++
	d.deltaN++
	d.size++
	d.fp ^= factHash(f)
	d.gen++
	d.maybeFlatten()
	return true
}

// Delete removes a fact, reporting whether it was present.
func (d *Instance) Delete(f Fact) bool {
	if !d.overlay() {
		if !d.eng.delete(f) {
			return false
		}
		d.size, d.fp = d.eng.size, d.eng.fp
		d.gen++
		return true
	}
	rk := RelKey{f.Pred, len(f.Args)}
	key := f.Args.Key()
	if dl := d.deltas[rk]; dl != nil {
		if t, ok := dl.add[key]; ok && t != nil {
			dl = d.deltaFor(rk, false)
			dl.add[key] = nil // tombstone; the addOrder slot stays unique
			dl.addN--
			if tombstonesDominate(len(dl.addOrder)-dl.addN, dl.addN) {
				dl.add, dl.addOrder = dl.liveAdds()
			}
			d.deltaN--
			d.size--
			d.fp ^= factHash(Fact{Pred: f.Pred, Args: t})
			d.gen++
			return true
		}
		if _, gone := dl.del[key]; gone {
			return false
		}
	}
	s := d.eng.stores[rk]
	if s == nil {
		return false
	}
	i, ok := s.pos[key]
	if !ok {
		return false
	}
	t := s.rows[i]
	dl := d.deltaFor(rk, true)
	dl.del[key] = t
	d.deltaN++
	d.size--
	d.fp ^= factHash(Fact{Pred: f.Pred, Args: t})
	d.gen++
	d.maybeFlatten()
	return true
}

// maybeFlatten folds a heavily edited overlay back into a fresh, privately
// owned engine, so a long-lived view that has diverged far from its base
// stops paying the delta-merge cost on every read. Flattening is purely a
// representation change — other views of the old base are unaffected — and
// restores direct-write (owner) mode until the next Clone.
func (d *Instance) maybeFlatten() {
	if d.deltaN <= 256 || d.deltaN*2 <= d.eng.size {
		return
	}
	eng := newEngine()
	d.ForEach(func(f Fact) bool {
		eng.insert(f)
		return true
	})
	d.eng = eng
	d.deltas, d.dorder, d.deltaN = nil, nil, 0
	d.size, d.fp = eng.size, eng.fp
	d.gen++
	d.factsCache = nil
	d.deltaCache, d.deltaOK = Delta{}, false
}

// Has reports membership.
func (d *Instance) Has(f Fact) bool {
	return d.has(RelKey{f.Pred, len(f.Args)}, f.Args.Key())
}

// Len returns the number of facts.
func (d *Instance) Len() int {
	if !d.overlay() {
		return d.eng.size
	}
	return d.size
}

// RelationSize returns the number of tuples of the given predicate/arity in
// O(1) (plus the overlay delta size).
func (d *Instance) RelationSize(pred string, arity int) int {
	rk := RelKey{pred, arity}
	n := 0
	if s := d.eng.stores[rk]; s != nil {
		n = s.live()
	}
	if d.overlay() {
		if dl := d.deltas[rk]; dl != nil {
			n += dl.addN - len(dl.del)
		}
	}
	return n
}

// Scan visits every tuple of the given predicate/arity that agrees with the
// bindings, in the store's deterministic iteration order (base insertion
// order, then overlay insertions). Bound columns are served from a lazily
// built hash index, so the cost depends on the matching tuples, not on the
// size of the relation — and never on unrelated relations. yield returns
// false to stop early.
func (d *Instance) Scan(pred string, arity int, bindings []Binding, yield func(Tuple) bool) {
	rk := RelKey{pred, arity}
	var dl *delta
	if d.overlay() {
		dl = d.deltas[rk]
	}
	if s := d.eng.stores[rk]; s != nil {
		cont := s.scan(bindings, func(row int) bool {
			if dl != nil {
				if _, gone := dl.del[s.keys[row]]; gone {
					return true
				}
			}
			return yield(s.rows[row])
		})
		if !cont {
			return
		}
	}
	if dl != nil {
		for _, k := range dl.addOrder {
			t := dl.add[k]
			if t == nil { // tombstoned (re-deleted) addition
				continue
			}
			if !matchBindings(t, bindings) {
				continue
			}
			if !yield(t) {
				return
			}
		}
	}
}

// ForEach visits every fact of the instance in a deterministic order without
// materializing a slice. yield returns false to stop early.
func (d *Instance) ForEach(yield func(Fact) bool) {
	if !d.overlay() {
		d.eng.forEach(yield)
		return
	}
	cont := d.eng.forEach(func(f Fact) bool {
		if dl := d.deltas[RelKey{f.Pred, len(f.Args)}]; dl != nil {
			if _, gone := dl.del[f.Args.Key()]; gone {
				return true
			}
		}
		return yield(f)
	})
	if !cont {
		return
	}
	for _, rk := range d.dorder {
		dl := d.deltas[rk]
		for _, k := range dl.addOrder {
			t := dl.add[k]
			if t == nil {
				continue
			}
			if !yield(Fact{Pred: rk.Pred, Args: t}) {
				return
			}
		}
	}
}

// sortedFacts returns the cached sorted fact list without copying; callers
// must not mutate it. For an overlay the list is a linear merge of the
// engine's shared sorted base (built once per engine, for every view) with
// the overlay's sorted delta — O(|D| + |Δ|) per view instead of a full
// O(|D| log |D|) re-sort, which is what keeps canonical repair listings
// cheap when thousands of leaves share one base.
func (d *Instance) sortedFacts() []Fact {
	if d.factsCache == nil || d.factsGen != d.gen {
		if !d.overlay() {
			d.factsCache = d.eng.sortedFacts()
		} else {
			d.factsCache = mergeSorted(d.eng.sortedFacts(), d.Delta(), d.size)
		}
		d.factsGen = d.gen
	}
	return d.factsCache
}

// mergeSorted merges a sorted base fact list with a sorted delta: removed
// facts (a subset of the base) are skipped, added facts (disjoint from the
// base) are merged in order. Distinct facts never compare equal (Compare is
// injective on fact content), so the two-pointer walk is exact.
func mergeSorted(base []Fact, dl Delta, size int) []Fact {
	if len(dl.Removed) == 0 && len(dl.Added) == 0 {
		return base
	}
	out := make([]Fact, 0, size)
	ri, ai := 0, 0
	for _, f := range base {
		if ri < len(dl.Removed) && dl.Removed[ri].Compare(f) == 0 {
			ri++
			continue
		}
		for ai < len(dl.Added) && dl.Added[ai].Compare(f) < 0 {
			out = append(out, dl.Added[ai])
			ai++
		}
		out = append(out, f)
	}
	out = append(out, dl.Added[ai:]...)
	return out
}

// Facts returns all facts sorted deterministically. The result is cached
// until the next mutation; callers receive a fresh copy each call.
func (d *Instance) Facts() []Fact {
	return append([]Fact(nil), d.sortedFacts()...)
}

// Compare orders instances content-canonically: lexicographically over
// their sorted fact lists under Fact.Compare. Like Key, this order depends
// only on the instances' content, so it is stable across runs; deterministic
// output (repair listings) sorts by it.
func (d *Instance) Compare(e *Instance) int {
	if d == e {
		return 0
	}
	if d.overlay() && e.overlay() && d.eng == e.eng {
		return d.compareShared(e)
	}
	fa, fb := d.sortedFacts(), e.sortedFacts()
	for i := 0; i < len(fa) && i < len(fb); i++ {
		if c := fa[i].Compare(fb[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(fa) < len(fb):
		return -1
	case len(fa) > len(fb):
		return 1
	default:
		return 0
	}
}

// compareShared orders two overlay views of one engine from their deltas
// alone, in O(|Δ| log |D|) instead of the O(|D|) merged-list walk. The two
// sorted fact sequences agree on every fact below the minimal fact f* whose
// membership differs (any such fact is in one of the deltas), so the
// comparison is decided at f*'s position: the view containing f* is smaller,
// unless the other view has no fact above f* at all — then it is a strict
// prefix and orders first.
func (d *Instance) compareShared(e *Instance) int {
	da, db := d.Delta().Facts(), e.Delta().Facts()
	i, j := 0, 0
	for i < len(da) || j < len(db) {
		var f Fact
		switch {
		case i >= len(da):
			f = db[j]
			j++
		case j >= len(db):
			f = da[i]
			i++
		default:
			if c := da[i].Compare(db[j]); c <= 0 {
				f = da[i]
				i++
				if c == 0 {
					j++
				}
			} else {
				f = db[j]
				j++
			}
		}
		inD, inE := d.Has(f), e.Has(f)
		if inD == inE {
			continue
		}
		other, sign := e, -1
		if inE {
			other, sign = d, 1
		}
		if other.hasFactAbove(f) {
			return sign
		}
		return -sign
	}
	return 0
}

// hasFactAbove reports whether the instance contains any fact strictly
// greater than f under Fact.Compare. Overlay-cheap: a binary search into the
// shared engine's sorted facts plus a walk over the (small) removed set.
func (d *Instance) hasFactAbove(f Fact) bool {
	dl := d.Delta()
	for k := len(dl.Added) - 1; k >= 0; k-- {
		if dl.Added[k].Compare(f) > 0 {
			return true
		}
	}
	base := d.eng.sortedFacts()
	idx := sort.Search(len(base), func(i int) bool { return base[i].Compare(f) > 0 })
	ri := sort.Search(len(dl.Removed), func(i int) bool { return dl.Removed[i].Compare(f) > 0 })
	for idx < len(base) {
		for ri < len(dl.Removed) && dl.Removed[ri].Compare(base[idx]) < 0 {
			ri++
		}
		if ri < len(dl.Removed) && dl.Removed[ri].Compare(base[idx]) == 0 {
			ri++
			idx++
			continue
		}
		return true
	}
	return false
}

// Relation returns the sorted tuples of the given predicate with the given
// arity, or nil when it has none. It scans and sorts on every call.
func (d *Instance) Relation(pred string, arity int) []Tuple {
	var out []Tuple
	d.Scan(pred, arity, nil, func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// RelKeys returns the relations with at least one fact, sorted by predicate
// then arity.
func (d *Instance) RelKeys() []RelKey {
	var out []RelKey
	seen := map[RelKey]bool{}
	add := func(rk RelKey) {
		if !seen[rk] && d.RelationSize(rk.Pred, rk.Arity) > 0 {
			seen[rk] = true
			out = append(out, rk)
		}
	}
	for _, rk := range d.eng.order {
		add(rk)
	}
	for _, rk := range d.dorder {
		add(rk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// Preds returns the sorted predicate names occurring in the instance.
func (d *Instance) Preds() []string {
	var out []string
	seen := map[string]bool{}
	for _, rk := range d.RelKeys() {
		if !seen[rk.Pred] {
			seen[rk.Pred] = true
			out = append(out, rk.Pred)
		}
	}
	sort.Strings(out)
	return out
}

// Freeze seals the instance's physical engine for shared, concurrent read
// access without creating a copy: the engine is frozen exactly as a first
// Clone would freeze it, and this view is demoted to an overlay, so later
// writes land in private deltas while any number of goroutines may read
// views of the shared base race-free. Freezing an instance that is already
// an overlay is a no-op (its engine is frozen by construction).
func (d *Instance) Freeze() {
	if d.overlay() {
		return
	}
	d.eng.freeze()
	d.deltas = map[RelKey]*delta{}
	d.size, d.fp = d.eng.size, d.eng.fp
}

// Clone returns an independent copy of the instance in O(#touched
// relations): the physical base is shared (and frozen) and the overlay
// deltas are shared copy-on-write — both views mark every entry as borrowed
// and copy a relation's delta only when they first write to it.
func (d *Instance) Clone() *Instance {
	if !d.overlay() {
		// First clone: freeze the engine and demote the owner to an
		// overlay view so both copies write to private deltas from now
		// on.
		d.Freeze()
	}
	c := &Instance{
		eng:    d.eng,
		deltas: make(map[RelKey]*delta, len(d.deltas)),
		dorder: append([]RelKey(nil), d.dorder...),
		size:   d.size,
		fp:     d.fp,
		deltaN: d.deltaN,
	}
	for rk, dl := range d.deltas {
		// The load-then-store keeps already-shared deltas' cache lines
		// clean; the idempotent store is what makes concurrent Clones of
		// one (frozen, read-only) view race-free.
		if !dl.shared.Load() {
			dl.shared.Store(true)
		}
		c.deltas[rk] = dl
	}
	return c
}

// Fingerprint returns an order-independent 64-bit fingerprint of the fact
// set, maintained incrementally across mutations. Distinct fingerprints
// imply distinct instances; equal fingerprints must be confirmed with Equal.
func (d *Instance) Fingerprint() uint64 {
	if !d.overlay() {
		return d.eng.fp
	}
	return d.fp
}

// Equal reports set equality of instances. Views of the same physical base
// — every pair of states within one repair search — are compared through
// their overlay deltas alone in O(|Δ(d)| + |Δ(e)|).
func (d *Instance) Equal(e *Instance) bool {
	if d.Len() != e.Len() {
		return false
	}
	if d.Fingerprint() != e.Fingerprint() {
		return false
	}
	if d.eng == e.eng {
		return equalShared(d, e)
	}
	equal := true
	d.ForEach(func(f Fact) bool {
		if !e.Has(f) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// equalShared decides equality of two views of one base from their deltas:
// the views agree everywhere except possibly at delta points, so it suffices
// to check that every add/del of each side holds in the other.
func equalShared(d, e *Instance) bool {
	check := func(a, b *Instance) bool {
		for _, rk := range a.dorder {
			dl := a.deltas[rk]
			for k, t := range dl.add {
				if t != nil && !b.has(rk, k) {
					return false
				}
			}
			for k := range dl.del {
				if b.has(rk, k) {
					return false
				}
			}
		}
		return true
	}
	return check(d, e) && check(e, d)
}

// Key returns a canonical injective encoding of the whole instance (used to
// memoize repair search states and to order repairs deterministically). The
// encoding is the sorted concatenation of the per-fact keys, each of which is
// self-delimiting (pred id, arity, then arity-many ids, 4 bytes each).
func (d *Instance) Key() string {
	keys := make([]string, 0, d.Len())
	d.ForEach(func(f Fact) bool {
		keys = append(keys, f.Key())
		return true
	})
	sort.Strings(keys)
	return strings.Join(keys, "")
}

// String renders the instance as a sorted set of facts.
func (d *Instance) String() string {
	fs := d.Facts()
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ActiveDomain returns adom(D): the set of constants occurring in the
// instance, sorted, excluding null (null is accounted for separately in
// Proposition 1: adom(D) ∪ const(IC) ∪ {null}).
func (d *Instance) ActiveDomain() []value.V {
	seen := map[value.V]bool{}
	var out []value.V
	d.ForEach(func(f Fact) bool {
		for _, v := range f.Args {
			if !v.IsNull() && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Project computes D^A of Definition 3: every fact of a predicate named in
// positions is projected onto the given 0-based attribute positions (sorted
// ascending); predicates absent from positions are dropped. Projected
// predicates keep their names (their arity changes, which keeps them distinct
// in this package's Fact keys).
func (d *Instance) Project(positions map[string][]int) *Instance {
	out := NewInstance()
	d.ForEach(func(f Fact) bool {
		pos, ok := positions[f.Pred]
		if ok && fits(pos, len(f.Args)) {
			out.Insert(Fact{Pred: f.Pred, Args: f.Args.Project(pos)})
		}
		return true
	})
	return out
}

// fits reports whether every position is valid for the given arity (facts
// of a same-named predicate with a smaller arity are skipped rather than
// panicking).
func fits(pos []int, arity int) bool {
	for _, p := range pos {
		if p < 0 || p >= arity {
			return false
		}
	}
	return true
}

// Delta returns the overlay's symmetric difference against the physical base
// engine this view shares: Added are the facts inserted over the base,
// Removed the base facts deleted, both sorted. For an instance that owns its
// engine (no overlay, or an overlay folded back by flattening) the delta is
// empty — the base *is* the instance. The cost is O(|Δ|), independent of the
// instance size, which is what lets downstream layers (Δ-seeded constraint
// probes, base-anchored query patching) see what changed instead of
// re-scanning everything. The result is cached until the next mutation and
// its slices may be shared across calls: treat it as read-only.
func (d *Instance) Delta() Delta {
	if !d.overlay() {
		return Delta{}
	}
	if d.deltaOK && d.deltaGen == d.gen {
		return d.deltaCache
	}
	var dl Delta // built fresh, never reusing the previous cache's arrays:
	// earlier callers may still hold the old snapshot.
	for _, rk := range d.dorder {
		deltas := d.deltas[rk]
		for _, k := range deltas.addOrder {
			if t := deltas.add[k]; t != nil {
				dl.Added = append(dl.Added, Fact{Pred: rk.Pred, Args: t})
			}
		}
		for _, t := range deltas.del {
			dl.Removed = append(dl.Removed, Fact{Pred: rk.Pred, Args: t})
		}
	}
	SortFacts(dl.Added)
	SortFacts(dl.Removed)
	d.deltaCache, d.deltaGen, d.deltaOK = dl, d.gen, true
	return dl
}

// Diff computes Δ(d, e). When both instances are overlay views of the same
// physical base — as in the repair search, where every state is a clone of
// the original database — the difference is computed from the deltas alone
// in O(|Δ(d)| + |Δ(e)|), independent of |D|. When d additionally sits exactly
// on the base (a freshly frozen owner, the root of a repair search), the
// difference is e's own overlay delta.
func Diff(d, e *Instance) Delta {
	if d.eng == e.eng {
		if d.deltaN == 0 {
			return e.Delta()
		}
		return diffShared(d, e)
	}
	var dl Delta
	d.ForEach(func(f Fact) bool {
		if !e.Has(f) {
			dl.Removed = append(dl.Removed, f)
		}
		return true
	})
	e.ForEach(func(f Fact) bool {
		if !d.Has(f) {
			dl.Added = append(dl.Added, f)
		}
		return true
	})
	SortFacts(dl.Removed)
	SortFacts(dl.Added)
	return dl
}

// has reports membership of a relation tuple by key, overlay-aware. An add
// tombstone (nil tuple) means "not present": tombstoned keys never shadow
// base facts (adds are disjoint from the base).
func (d *Instance) has(rk RelKey, key string) bool {
	if d.overlay() {
		if dl := d.deltas[rk]; dl != nil {
			if t, ok := dl.add[key]; ok {
				return t != nil
			}
			if _, ok := dl.del[key]; ok {
				return false
			}
		}
	}
	return d.eng.has(rk, key)
}

func diffShared(d, e *Instance) Delta {
	var dl Delta
	// Removed = present in d, absent in e. Such a fact is either an
	// overlay addition of d that e lacks, or a base fact deleted in e but
	// not in d. (d's additions and e's base deletions are disjoint sets:
	// additions never shadow base facts.)
	for _, rk := range d.dorder {
		for k, t := range d.deltas[rk].add {
			if t != nil && !e.has(rk, k) {
				dl.Removed = append(dl.Removed, Fact{Pred: rk.Pred, Args: t})
			}
		}
	}
	for _, rk := range e.dorder {
		for k, t := range e.deltas[rk].del {
			if d.has(rk, k) {
				dl.Removed = append(dl.Removed, Fact{Pred: rk.Pred, Args: t})
			}
		}
	}
	// Added = present in e, absent in d — symmetric.
	for _, rk := range e.dorder {
		for k, t := range e.deltas[rk].add {
			if t != nil && !d.has(rk, k) {
				dl.Added = append(dl.Added, Fact{Pred: rk.Pred, Args: t})
			}
		}
	}
	for _, rk := range d.dorder {
		for k, t := range d.deltas[rk].del {
			if e.has(rk, k) {
				dl.Added = append(dl.Added, Fact{Pred: rk.Pred, Args: t})
			}
		}
	}
	SortFacts(dl.Removed)
	SortFacts(dl.Added)
	return dl
}
