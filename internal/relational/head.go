package relational

// Head is a mutable view over a frozen anchor instance: the anchor is the
// immutable snapshot long-lived readers (prepared query plans, cached repair
// enumerations, base groundings) are anchored to, and the current instance is
// an overlay of the anchor advanced fact-by-fact through Apply. All engines
// read the current instance; anything that wants O(|Δ|) patching diffs
// against the anchor, whose distance from the current instance is Drift().
//
// Drift counts net edits only: an insert undone by a delete cancels, so a
// stream of insert/undo pairs never re-anchors. That is safe because the
// current instance's overlay keeps at most max(32, live adds) tombstones per
// relation (see delta), so the pairs it undid leave nothing that grows with
// their number.
//
// Head is not safe for concurrent mutation; readers of Anchor() are safe
// because the anchor is never written after it becomes the anchor.
type Head struct {
	anchor *Instance
	cur    *Instance
	// Cumulative effective delta from anchor to cur, keyed by Fact.Key so a
	// removal re-added (or an addition re-removed) cancels instead of
	// accumulating. Invariant: added/removed are disjoint and every entry is
	// an actual difference between anchor and cur.
	added   map[string]Fact
	removed map[string]Fact
}

// NewHead freezes d and returns a head anchored at d with an identical
// current instance. d must not be mutated by the caller afterwards.
func NewHead(d *Instance) *Head {
	d.Freeze()
	return &Head{
		anchor:  d,
		cur:     d.Clone(),
		added:   make(map[string]Fact),
		removed: make(map[string]Fact),
	}
}

// Anchor returns the frozen snapshot the cumulative delta is relative to.
// It is immutable until the next Rebase.
func (h *Head) Anchor() *Instance { return h.anchor }

// Current returns the live instance. Callers must treat it as read-only;
// all mutation goes through Apply.
func (h *Head) Current() *Instance { return h.cur }

// Apply advances the current instance by dl (removals first, then
// additions) and returns the effective delta: the facts whose presence
// actually changed, with both halves sorted per the Delta contract. No-op
// edits (deleting an absent fact, inserting a present one) are dropped.
func (h *Head) Apply(dl Delta) Delta {
	var eff Delta
	for _, f := range dl.Removed {
		if h.cur.Delete(f) {
			eff.Removed = append(eff.Removed, f)
			h.note(f, false)
		}
	}
	for _, f := range dl.Added {
		if h.cur.Insert(f) {
			eff.Added = append(eff.Added, f)
			h.note(f, true)
		}
	}
	SortFacts(eff.Removed)
	SortFacts(eff.Added)
	return eff
}

func (h *Head) note(f Fact, added bool) {
	key := f.Key()
	if added {
		if _, ok := h.removed[key]; ok {
			delete(h.removed, key)
			return
		}
		h.added[key] = f
	} else {
		if _, ok := h.added[key]; ok {
			delete(h.added, key)
			return
		}
		h.removed[key] = f
	}
}

// Delta returns the cumulative anchor→current delta with sorted halves.
func (h *Head) Delta() Delta {
	var dl Delta
	if len(h.removed) > 0 {
		dl.Removed = make([]Fact, 0, len(h.removed))
		for _, f := range h.removed {
			dl.Removed = append(dl.Removed, f)
		}
		SortFacts(dl.Removed)
	}
	if len(h.added) > 0 {
		dl.Added = make([]Fact, 0, len(h.added))
		for _, f := range h.added {
			dl.Added = append(dl.Added, f)
		}
		SortFacts(dl.Added)
	}
	return dl
}

// Rebase makes the current contents the new anchor and resets the
// cumulative delta to empty. Owners call it before the overlay's delta
// outgrows the shared engine (see Instance flattening), which would
// silently break the shared-engine O(|Δ|) diff path long-lived anchors
// rely on. Costs O(|D|); amortize it over many Applies.
func (h *Head) Rebase() {
	// Build the new anchor as a private owner so its overlay delta restarts
	// at zero; clones of the old chain keep the old engine and stay valid.
	na := NewInstance()
	h.cur.ForEach(func(f Fact) bool {
		na.Insert(f)
		return true
	})
	na.Freeze()
	h.anchor = na
	h.cur = na.Clone()
	h.added = make(map[string]Fact)
	h.removed = make(map[string]Fact)
}

// Drift reports how many facts separate the current instance from the
// anchor (the size of Delta()).
func (h *Head) Drift() int { return len(h.added) + len(h.removed) }
