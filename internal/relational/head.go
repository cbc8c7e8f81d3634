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
	// drift is |Δ(anchor, cur)|. Apply moves it by one per effective edit:
	// up when the edit makes cur differ from the anchor on the fact, down
	// when it undoes such a difference. It is counted rather than read off
	// cur's overlay because the anchor may itself be an overlay with edits
	// of its own, and because a flattened cur has no overlay left.
	drift int
}

// NewHead freezes d and returns a head anchored at d with an identical
// current instance. d must not be mutated by the caller afterwards.
func NewHead(d *Instance) *Head {
	d.Freeze()
	return &Head{anchor: d, cur: d.Clone()}
}

// Anchor returns the frozen snapshot the drift is relative to. It is
// immutable until the next Rebase.
func (h *Head) Anchor() *Instance { return h.anchor }

// Current returns the live instance. Callers must treat it as read-only;
// all mutation goes through Apply.
func (h *Head) Current() *Instance { return h.cur }

// Apply advances the current instance by dl (removals first, then
// additions) and returns the effective delta: the facts whose presence
// actually changed, with both halves sorted per the Delta contract, which
// is Diff of the instance before and after. No-op edits (deleting an
// absent fact, inserting a present one) are dropped, and so is a removal
// of a fact dl also adds: the fact ends present either way, and the
// overlay is left as it was.
func (h *Head) Apply(dl Delta) Delta {
	var eff Delta
	var readded map[uint64][]Fact
	if len(dl.Removed) > 0 && len(dl.Added) > 0 {
		readded = make(map[uint64][]Fact, len(dl.Added))
		for _, f := range dl.Added {
			readded[f.Hash()] = append(readded[f.Hash()], f)
		}
	}
	for _, f := range dl.Removed {
		if readded != nil && containsFact(readded[f.Hash()], f) {
			continue
		}
		if h.cur.Delete(f) {
			eff.Removed = append(eff.Removed, f)
			h.move(!h.anchor.Has(f))
		}
	}
	for _, f := range dl.Added {
		if h.cur.Insert(f) {
			eff.Added = append(eff.Added, f)
			h.move(h.anchor.Has(f))
		}
	}
	SortFacts(eff.Removed)
	SortFacts(eff.Added)
	return eff
}

func containsFact(fs []Fact, f Fact) bool {
	for _, g := range fs {
		if g.Equal(f) {
			return true
		}
	}
	return false
}

// move counts one effective edit: undo reports that it restores the
// anchor's state of its fact (a removal of a fact the anchor lacks, an
// addition of one it holds).
func (h *Head) move(undo bool) {
	if undo {
		h.drift--
	} else {
		h.drift++
	}
}

// Rebase makes the current contents the new anchor and resets the drift
// to zero. Owners call it before the overlay's delta outgrows the shared
// engine (see Instance flattening), which would silently break the
// shared-engine O(|Δ|) diff path long-lived anchors rely on. Costs O(|D|);
// amortize it over many Applies.
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
	h.drift = 0
}

// Drift reports how many facts separate the current instance from the
// anchor: the size of Diff(Anchor(), Current()).
func (h *Head) Drift() int { return h.drift }
