package relational

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file pins Head.Drift to its definition, |Diff(Anchor(), Current())|,
// and Apply's effective delta to Diff of the instance before and after it,
// over insert/delete/undo streams, on an owner anchor and on an overlay
// anchor with edits of its own, and across a batch that flattens the
// current instance.

// driftFact is the i-th fact of the streams' universe c(-10..29):
// c(-8..-1) are the anchors' base facts, and the overlay anchor also holds
// c(20) and c(21).
func driftFact(i int) Fact { return churnFact(i%40 - 10) }

// driftAnchors returns a fresh owner anchor and a fresh overlay anchor
// that has deleted two base facts and added two of its own.
func driftAnchors() map[string]*Instance {
	base := func() *Instance {
		d := NewInstance()
		for i := -8; i < 0; i++ {
			d.Insert(churnFact(i))
		}
		return d
	}
	ov := base().Clone()
	ov.Delete(churnFact(-1))
	ov.Delete(churnFact(-2))
	ov.Insert(churnFact(20))
	ov.Insert(churnFact(21))
	return map[string]*Instance{"owner": base(), "overlay": ov}
}

// flattenBatch is the size of a batch of fresh facts that flattens the
// current instance (Instance.maybeFlatten) of either anchor.
const flattenBatch = 300

// driftStream applies one edit per op to h and checks the drift after
// every Apply. An op is a kind (op%6) and an argument.
type driftStream struct {
	h     *Head
	last  Delta // the last effective delta, for undo
	fresh int   // facts c(1000), c(1001), ... are fresh
}

func (ds *driftStream) step(t *testing.T, label string, op, arg int) {
	t.Helper()
	var dl Delta
	switch op % 6 {
	case 0: // insert a fact of the universe
		dl.Added = []Fact{driftFact(arg)}
	case 1: // delete a fact of the universe
		dl.Removed = []Fact{driftFact(arg)}
	case 2: // a mixed batch, which may remove and re-add one fact
		for j := 0; j < 4; j++ {
			dl.Removed = append(dl.Removed, driftFact(arg+3*j))
			dl.Added = append(dl.Added, driftFact(arg+5*j+1))
		}
	case 3: // undo the last effective delta
		dl = Delta{Removed: ds.last.Added, Added: ds.last.Removed}
	case 4: // a batch of fresh facts large enough to flatten
		for j := 0; j < flattenBatch; j++ {
			dl.Added = append(dl.Added, churnFact(1000+ds.fresh))
			ds.fresh++
		}
	case 5:
		ds.h.Rebase()
	}
	pre := NewInstance(ds.h.Current().Facts()...)
	ds.last = ds.h.Apply(dl)
	if want := Diff(pre, ds.h.Current()); !deltasEqual(ds.last, want) {
		t.Fatalf("%s (kind %d, arg %d): Apply(%v) returned %v, Diff(pre, post) = %v",
			label, op%6, arg, dl, ds.last, want)
	}
	if got, want := ds.h.Drift(), Diff(ds.h.Anchor(), ds.h.Current()).Size(); got != want {
		t.Fatalf("%s (kind %d, arg %d): Drift() = %d, |Diff(Anchor(), Current())| = %d",
			label, op%6, arg, got, want)
	}
}

// TestHeadDriftMatchesDiff runs seeded streams of single edits, mixed
// batches and undos on both anchors, with one flattening batch 15 steps
// before the end (a Diff against a flattened instance scans it, which
// bounds how many steps follow).
func TestHeadDriftMatchesDiff(t *testing.T) {
	const seeds, steps, flattenAt = 100, 60, 45
	for name := range driftAnchors() {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ds := &driftStream{h: NewHead(driftAnchors()[name])}
			for i := 0; i < steps; i++ {
				op := rng.Intn(4) // single edits, mixed batches and undos
				if i == flattenAt {
					op = 4
				}
				ds.step(t, fmt.Sprintf("%s seed %d step %d", name, seed, i), op, rng.Intn(40))
				if i == flattenAt && ds.h.Current().overlay() {
					t.Fatalf("%s seed %d: a batch of %d fresh facts did not flatten the current instance",
						name, seed, flattenBatch)
				}
			}
		}
	}
}

// FuzzHeadDrift checks the drift after every Apply of a decoded stream, on
// both anchors. Each op is two bytes, op and arg; op%6 picks the kind.
func FuzzHeadDrift(f *testing.F) {
	f.Add([]byte{})
	// Insert, delete an anchor fact, undo, mixed batch, undo.
	f.Add([]byte{0, 25, 1, 3, 3, 0, 2, 7, 3, 0})
	// Flatten, undo the flattening batch, rebase, insert, delete.
	f.Add([]byte{0, 11, 4, 0, 3, 0, 5, 0, 0, 30, 1, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, anchor := range driftAnchors() {
			ds := &driftStream{h: NewHead(anchor)}
			for i := 0; i+1 < len(data); i += 2 {
				ds.step(t, fmt.Sprintf("%s op %d", name, i/2), int(data[i]), int(data[i+1]))
			}
		}
	})
}
