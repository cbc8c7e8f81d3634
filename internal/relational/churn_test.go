package relational

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/value"
)

// This file pins the overlay tombstone bound: an insert/delete stream of
// fresh facts on an overlay keeps O(live) delta entries however long it
// runs, copies of the churned delta cost O(live), and every view still
// reads exactly like a plain fact set.

var churnRel = RelKey{"c", 2}

// churnFact returns the i-th fresh fact of the churned relation.
func churnFact(i int) Fact { return F("c", value.Int(int64(i)), value.Str("f")) }

// allocBytes reports the fewest heap bytes one call of f allocated over a
// few calls; the minimum screens out allocations by other goroutines.
func allocBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for run := 0; run < 5; run++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b < best {
			best = b
		}
	}
	return best
}

// TestOverlayChurnBounded applies N = 64 … 65,536 insert/delete pairs of
// fresh facts to an overlay holding three live adds. The retained add
// entries stay within 2·live + 33 after every pair, a clone plus one write
// to the churned relation allocates the same at every N, and the view
// matches the reference.
func TestOverlayChurnBounded(t *testing.T) {
	var first uint64
	for n := 64; n <= 65536; n *= 4 {
		base := NewInstance(F("c", value.Int(-1), value.Str("base")), F("p", value.Str("a")))
		ref := refInstance{}
		base.ForEach(func(f Fact) bool { ref.insert(f); return true })
		o := base.Clone()
		for i := 2; i <= 4; i++ {
			f := F("c", value.Int(int64(-i)), value.Str("live"))
			o.Insert(f)
			ref.insert(f)
		}
		for i := 0; i < n; i++ {
			f := churnFact(i)
			if !o.Insert(f) || !o.Delete(f) {
				t.Fatalf("N=%d pair %d: insert/delete of a fresh fact failed", n, i)
			}
			dl := o.deltas[churnRel]
			if limit := 2*dl.addN + 33; len(dl.add) > limit || len(dl.addOrder) > limit {
				t.Fatalf("N=%d pair %d: %d add entries, %d addOrder slots for %d live adds",
					n, i, len(dl.add), len(dl.addOrder), dl.addN)
			}
		}
		sameAsRef(t, o, ref, fmt.Sprintf("N=%d", n))

		extra := F("c", value.Int(-100), value.Str("x"))
		bytes := allocBytes(func() { o.Clone().Insert(extra) })
		if n == 64 {
			first = bytes
		} else if bytes > 2*first {
			t.Fatalf("N=%d: clone plus one write allocated %d bytes, %d at N=64", n, bytes, first)
		}

		c := o.Clone()
		c.Insert(extra)
		ref.insert(extra)
		if dl := c.deltas[churnRel]; len(dl.add) != dl.addN || len(dl.addOrder) != dl.addN {
			t.Fatalf("N=%d: the copy kept tombstones: %d add entries, %d slots, %d live",
				n, len(dl.add), len(dl.addOrder), dl.addN)
		}
		sameAsRef(t, c, ref, fmt.Sprintf("N=%d copy", n))
	}
}

// scanOrder lists the churned relation in Scan order.
func scanOrder(d *Instance) []string {
	var out []string
	d.Scan("c", 2, nil, func(tp Tuple) bool {
		out = append(out, tp.String())
		return true
	})
	return out
}

// TestRevivedKeyOrder pins where a re-inserted overlay add sits in its
// relation's order: in its old slot while its tombstone lasts, and last,
// listed once, after a compaction or a copy has dropped the tombstone.
func TestRevivedKeyOrder(t *testing.T) {
	base := NewInstance(F("c", value.Int(0), value.Str("base")))
	k := F("c", value.Int(1), value.Str("k"))
	later := F("c", value.Int(2), value.Str("later"))
	kept := fmt.Sprint([]string{"(0,base)", "(1,k)", "(2,later)"})
	moved := fmt.Sprint([]string{"(0,base)", "(2,later)", "(1,k)"})
	check := func(label string, d *Instance, want string) {
		t.Helper()
		if got := fmt.Sprint(scanOrder(d)); got != want {
			t.Fatalf("%s: Scan order %s, want %s", label, got, want)
		}
		var all []string
		d.ForEach(func(f Fact) bool {
			all = append(all, f.Args.String())
			return true
		})
		if got := fmt.Sprint(all); got != want {
			t.Fatalf("%s: ForEach order %s, want %s", label, got, want)
		}
	}
	fresh := func() *Instance {
		o := base.Clone()
		o.Insert(k)
		o.Insert(later)
		o.Delete(k)
		return o
	}

	o := fresh()
	o.Insert(k)
	check("tombstone kept", o, kept)

	o = fresh()
	for i := 0; i < 40; i++ { // past the compaction threshold
		o.Insert(churnFact(100 + i))
		o.Delete(churnFact(100 + i))
	}
	if _, ok := o.deltas[churnRel].add[k.Args.Key()]; ok {
		t.Fatal("compaction kept the tombstone of k")
	}
	o.Insert(k)
	check("after compaction", o, moved)

	o = fresh()
	c := o.Clone()
	c.Insert(k) // copies the shared delta
	check("copy", c, moved)
	o.Insert(k) // o's delta is shared too, so it copies as well
	check("original after the copy", o, moved)
}

// FuzzOverlayChurn drives random insert, delete, clone and re-insert
// streams over a few overlay views of one base, and after every op checks
// each view against its refInstance: Len, Has, ForEach and Scan (no
// duplicates), Delta, the Diff round trip, Equal and Key. It also checks
// the representation's bound: a delta's tombstones never exceed
// max(32, live adds).
//
// Each op is two bytes, op and arg; op>>3 picks the view and op%8 the kind.
func FuzzOverlayChurn(f *testing.F) {
	f.Add([]byte{})
	// Insert, delete, revive, clone, churn past the threshold, revive.
	f.Add([]byte{0, 3, 1, 0, 2, 0, 3, 0, 4, 40, 2, 0, 8, 1, 9, 2})
	// 48 live adds, deleted from inside a Scan, which compacts the delta
	// mid-scan; then base edits.
	f.Add([]byte{0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 6, 0, 5, 1, 5, 1, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := NewInstance()
		for i := 0; i < 3; i++ {
			base.Insert(F("c", value.Int(int64(-1-i)), value.Str("b")))
			base.Insert(F("p", value.Int(int64(i))))
		}
		baseRef := refInstance{}
		base.ForEach(func(f Fact) bool { baseRef.insert(f); return true })
		views := []*Instance{base.Clone()}
		refs := []refInstance{copyRef(baseRef)}
		next := 0       // the next fresh fact
		var gone []Fact // facts deleted somewhere, for re-inserts
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int(data[i+1])
			v := int(op>>3) % len(views)
			d, ref := views[v], refs[v]
			label := fmt.Sprintf("op %d (kind %d, view %d, arg %d)", i/2, op%8, v, arg)
			insert := func(f Fact) {
				if got, want := d.Insert(f), ref.insert(f); got != want {
					t.Fatalf("%s: Insert(%v) = %v, ref %v", label, f, got, want)
				}
			}
			del := func(f Fact) {
				if got, want := d.Delete(f), ref.delete(f); got != want {
					t.Fatalf("%s: Delete(%v) = %v, ref %v", label, f, got, want)
				}
				gone = append(gone, f)
			}
			switch op % 8 {
			case 0: // insert fresh facts
				for j := 0; j <= arg%8; j++ {
					insert(churnFact(next))
					next++
				}
			case 1: // delete a fact the view holds
				if fs := refFacts(ref); len(fs) > 0 {
					del(fs[arg%len(fs)])
				}
			case 2, 7: // re-insert a deleted fact
				if len(gone) > 0 {
					insert(gone[arg%len(gone)])
				}
			case 3: // clone the view
				if len(views) < 4 {
					views = append(views, d.Clone())
					refs = append(refs, copyRef(ref))
				}
			case 4: // insert/delete pairs of fresh facts
				for j := 0; j <= arg%64; j++ {
					f := churnFact(next)
					next++
					insert(f)
					del(f)
				}
			case 5: // delete or restore a base fact
				fs := refFacts(baseRef)
				g := fs[arg%len(fs)]
				if ref.has(g) {
					del(g)
				} else {
					insert(g)
				}
			case 6: // delete the churned relation from inside a Scan
				want := 0
				for _, g := range ref {
					if g.Pred == "c" {
						want++
					}
				}
				seen := map[string]bool{}
				d.Scan("c", 2, nil, func(tp Tuple) bool {
					if seen[tp.Key()] {
						t.Fatalf("%s: Scan visited %v twice", label, tp)
					}
					seen[tp.Key()] = true
					del(Fact{Pred: "c", Args: tp})
					return true
				})
				if len(seen) != want {
					t.Fatalf("%s: Scan-delete visited %d of %d tuples", label, len(seen), want)
				}
			}
			for w := range views {
				checkChurnView(t, fmt.Sprintf("%s view %d", label, w), base, baseRef, views[w], refs[w], gone)
			}
			for w := range views {
				checkChurnPair(t, fmt.Sprintf("%s views %d,%d", label, v, w), views[v], refs[v], views[w], refs[w])
			}
		}
	})
}

func copyRef(r refInstance) refInstance {
	c := refInstance{}
	for k, f := range r {
		c[k] = f
	}
	return c
}

func (r refInstance) has(f Fact) bool {
	_, ok := r[refKey(f)]
	return ok
}

// refFacts lists the reference's facts in a fixed order.
func refFacts(r refInstance) []Fact {
	var fs []Fact
	for _, f := range r {
		fs = append(fs, f)
	}
	return SortFacts(fs)
}

// refMinus lists a − b, sorted.
func refMinus(a, b refInstance) []Fact {
	var fs []Fact
	for k, f := range a {
		if _, ok := b[k]; !ok {
			fs = append(fs, f)
		}
	}
	return SortFacts(fs)
}

func refInstanceOf(r refInstance) *Instance { return NewInstance(refFacts(r)...) }

// checkChurnView checks one view against its reference.
func checkChurnView(t *testing.T, label string, base *Instance, baseRef refInstance, d *Instance, ref refInstance, gone []Fact) {
	t.Helper()
	sameAsRef(t, d, ref, label)
	for _, f := range gone {
		if d.Has(f) != ref.has(f) {
			t.Fatalf("%s: Has(%v) = %v", label, f, d.Has(f))
		}
	}
	for _, rel := range []RelKey{churnRel, {"p", 1}} {
		want := 0
		for _, f := range ref {
			if f.Pred == rel.Pred && len(f.Args) == rel.Arity {
				want++
			}
		}
		seen := map[string]bool{}
		d.Scan(rel.Pred, rel.Arity, nil, func(tp Tuple) bool {
			f := Fact{Pred: rel.Pred, Args: tp}
			if seen[tp.Key()] || !ref.has(f) {
				t.Fatalf("%s: Scan yielded %v twice or not in the reference", label, f)
			}
			seen[tp.Key()] = true
			return true
		})
		if len(seen) != want || d.RelationSize(rel.Pred, rel.Arity) != want {
			t.Fatalf("%s: Scan(%v) visited %d, RelationSize %d, reference %d",
				label, rel, len(seen), d.RelationSize(rel.Pred, rel.Arity), want)
		}
	}
	if d.eng == base.eng {
		dl := d.Delta()
		if !equalFacts(dl.Added, refMinus(ref, baseRef)) || !equalFacts(dl.Removed, refMinus(baseRef, ref)) {
			t.Fatalf("%s: Delta %v, reference +%v -%v", label, dl, refMinus(ref, baseRef), refMinus(baseRef, ref))
		}
	}
	if d.Key() != refInstanceOf(ref).Key() {
		t.Fatalf("%s: Key differs from the reference's", label)
	}
	for _, dl := range d.deltas {
		if dead := len(dl.addOrder) - dl.addN; len(dl.add) != len(dl.addOrder) || dead > max(32, dl.addN) {
			t.Fatalf("%s: %d add entries, %d slots, %d live adds", label, len(dl.add), len(dl.addOrder), dl.addN)
		}
	}
}

// checkChurnPair checks Diff and Equal between two views against their
// references, and that Δ(a, b) carries a copy of a to b.
func checkChurnPair(t *testing.T, label string, a *Instance, ra refInstance, b *Instance, rb refInstance) {
	t.Helper()
	dl := Diff(a, b)
	if !equalFacts(dl.Removed, refMinus(ra, rb)) || !equalFacts(dl.Added, refMinus(rb, ra)) {
		t.Fatalf("%s: Diff %v, reference -%v +%v", label, dl, refMinus(ra, rb), refMinus(rb, ra))
	}
	applied := refInstanceOf(ra)
	for _, f := range dl.Removed {
		applied.Delete(f)
	}
	for _, f := range dl.Added {
		applied.Insert(f)
	}
	if !applied.Equal(b) || applied.Key() != b.Key() {
		t.Fatalf("%s: a + Diff(a, b) != b", label)
	}
	sameRef := len(refMinus(ra, rb)) == 0 && len(refMinus(rb, ra)) == 0
	if a.Equal(b) != sameRef || b.Equal(a) != sameRef {
		t.Fatalf("%s: Equal = %v, references equal %v", label, a.Equal(b), sameRef)
	}
}
