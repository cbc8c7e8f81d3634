package relational

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func s(v string) value.V { return value.Str(v) }
func n() value.V         { return value.Null() }
func i(x int64) value.V  { return value.Int(x) }

func TestTupleKeyInjective(t *testing.T) {
	tuples := []Tuple{
		{s("a"), s("b")},
		{s("a,b")},
		{s("a"), s("b"), n()},
		{s("a"), n(), s("b")},
		{n(), s("a"), s("b")},
		{i(1), i(2)},
		{s("1"), s("2")},
		{},
	}
	seen := map[string]Tuple{}
	for _, tp := range tuples {
		k := tp.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %v and %v", prev, tp)
		}
		seen[k] = tp
	}
}

func TestTupleProjectAndHasNull(t *testing.T) {
	tp := Tuple{s("a"), n(), s("c")}
	if !tp.HasNull() {
		t.Error("HasNull false for tuple with null")
	}
	p := tp.Project([]int{0, 2})
	if !p.Equal(Tuple{s("a"), s("c")}) {
		t.Errorf("Project = %v", p)
	}
	if p.HasNull() {
		t.Error("projection dropped null but HasNull still true")
	}
	if got := tp.Project(nil); len(got) != 0 {
		t.Errorf("empty projection = %v", got)
	}
}

func TestFactStringAndEqual(t *testing.T) {
	f := F("Course", s("CS27"), i(21), s("W04"))
	if f.String() != "Course(CS27,21,W04)" {
		t.Errorf("String = %q", f.String())
	}
	if !f.Equal(F("Course", s("CS27"), i(21), s("W04"))) {
		t.Error("Equal broken")
	}
	if f.Equal(F("Course", s("CS27"), i(21))) {
		t.Error("arity must matter")
	}
	zero := F("True")
	if zero.String() != "True" {
		t.Errorf("0-ary String = %q", zero.String())
	}
}

func TestInstanceSetSemantics(t *testing.T) {
	// Example 7: with set semantics, inserting P(a,b) twice keeps one copy.
	d := NewInstance()
	if !d.Insert(F("P", s("a"), s("b"))) {
		t.Error("first insert reported duplicate")
	}
	if d.Insert(F("P", s("a"), s("b"))) {
		t.Error("second insert reported new")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
	if !d.Delete(F("P", s("a"), s("b"))) {
		t.Error("delete reported missing")
	}
	if d.Delete(F("P", s("a"), s("b"))) {
		t.Error("second delete reported present")
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d, want 0", d.Len())
	}
}

func TestInstanceInsertClonesTuple(t *testing.T) {
	args := Tuple{s("a")}
	d := NewInstance()
	d.Insert(Fact{Pred: "P", Args: args})
	args[0] = s("mutated")
	if !d.Has(F("P", s("a"))) {
		t.Error("instance shares caller's tuple storage")
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	d := NewInstance(F("P", s("a")), F("Q", s("b"), n()))
	c := d.Clone()
	c.Delete(F("P", s("a")))
	c.Insert(F("R", i(1)))
	if !d.Has(F("P", s("a"))) || d.Has(F("R", i(1))) {
		t.Error("Clone not independent")
	}
	if !d.Equal(NewInstance(F("Q", s("b"), n()), F("P", s("a")))) {
		t.Error("Equal broken after clone mutation")
	}
}

// relationOfFacts is the slice of d.Facts() that Relation(pred, arity)
// must return, or nil when it is empty.
func relationOfFacts(d *Instance, pred string, arity int) []Tuple {
	var out []Tuple
	for _, f := range d.Facts() {
		if f.Pred == pred && len(f.Args) == arity {
			out = append(out, f.Args)
		}
	}
	return out
}

func checkRelation(t *testing.T, label string, d *Instance, pred string, arity int) {
	t.Helper()
	got, want := d.Relation(pred, arity), relationOfFacts(d, pred, arity)
	if (got == nil) != (want == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Relation(%s, %d) = %v, Facts() slice %v", label, pred, arity, got, want)
	}
}

// TestInstanceRelationSorted checks Relation's order, and checks it
// against the matching slice of Facts() on an owner with tombstoned rows,
// before and after compaction, on an overlay with adds and deletes, and
// on empty and absent relations.
func TestInstanceRelationSorted(t *testing.T) {
	r := NewInstance(
		F("R", s("b"), i(2)),
		F("R", s("a"), i(9)),
		F("R", s("a"), i(1)),
		F("S", s("z")),
	)
	rows := r.Relation("R", 2)
	if len(rows) != 3 {
		t.Fatalf("Relation rows = %d", len(rows))
	}
	if !rows[0].Equal(Tuple{s("a"), i(1)}) || !rows[2].Equal(Tuple{s("b"), i(2)}) {
		t.Errorf("Relation not sorted: %v", rows)
	}
	if got := r.Relation("R", 3); len(got) != 0 {
		t.Error("arity mismatch must return nothing")
	}

	d := NewInstance(F("q", s("z")))
	for k := 99; k >= 0; k-- {
		d.Insert(F("p", i(int64(k)), s("v")))
	}
	for k := 0; k < 100; k += 10 {
		d.Delete(F("p", i(int64(k)), s("v")))
	}
	if st := d.eng.stores[RelKey{"p", 2}]; st.dead != 10 {
		t.Fatalf("fixture lost its premise: %d tombstoned rows, want 10", st.dead)
	}
	checkRelation(t, "owner with tombstones", d, "p", 2)
	for k := 1; k < 60; k++ {
		d.Delete(F("p", i(int64(k)), s("v")))
	}
	if st := d.eng.stores[RelKey{"p", 2}]; len(st.rows) >= 100 {
		t.Fatalf("fixture lost its premise: %d rows kept, want a compaction", len(st.rows))
	}
	checkRelation(t, "owner past compaction", d, "p", 2)

	o := d.Clone()
	o.Insert(F("p", i(-1), s("new")))
	o.Insert(F("p", i(-2), s("new")))
	o.Delete(F("p", i(-2), s("new"))) // a tombstoned add
	o.Delete(F("p", i(75), s("v")))
	o.Insert(F("p", i(10), s("v"))) // a base row deleted before the clone
	checkRelation(t, "overlay", o, "p", 2)
	checkRelation(t, "base under the overlay", d, "p", 2)

	o.Delete(F("q", s("z")))
	for _, tc := range []struct {
		label string
		pred  string
		arity int
	}{
		{"emptied relation", "q", 1},
		{"absent relation", "zz", 1},
		{"absent arity", "p", 3},
	} {
		if got := o.Relation(tc.pred, tc.arity); got != nil {
			t.Errorf("%s: Relation(%s, %d) = %v, want nil", tc.label, tc.pred, tc.arity, got)
		}
	}
}

// TestRelationConcurrentViews calls Relation from several goroutines, each
// on its own view of one frozen engine.
func TestRelationConcurrentViews(t *testing.T) {
	base := NewInstance()
	for k := 0; k < 200; k++ {
		base.Insert(F("p", i(int64((k*37)%200)), s("v")))
	}
	base.Freeze()
	views := []*Instance{base}
	for w := 1; w < 4; w++ {
		v := base.Clone()
		v.Insert(F("p", i(int64(-w)), s("w")))
		v.Delete(F("p", i(int64(w)), s("v")))
		views = append(views, v)
	}
	want := make([]string, len(views))
	for w, v := range views {
		want[w] = fmt.Sprint(relationOfFacts(v, "p", 2))
	}
	var wg sync.WaitGroup
	errs := make([]string, len(views))
	for w, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if got := fmt.Sprint(v.Relation("p", 2)); got != want[w] {
					errs[w] = got
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("view %d: Relation = %s, Facts() slice %s", w, e, want[w])
		}
	}
}

func TestActiveDomainExcludesNull(t *testing.T) {
	d := NewInstance(F("P", s("a"), n()), F("Q", i(3)), F("Q", i(3)))
	adom := d.ActiveDomain()
	if len(adom) != 2 {
		t.Fatalf("adom = %v", adom)
	}
	for _, v := range adom {
		if v.IsNull() {
			t.Error("active domain contains null")
		}
	}
}

func TestProjectDefinition3(t *testing.T) {
	// Example 10: D with P(a,b,a), P(b,c,a), R(a,5), R(a,2);
	// A(ψ) = {P[1],P[2],R[1],R[2]} (0-based: P{0,1}, R{0,1}).
	d := NewInstance(
		F("P", s("a"), s("b"), s("a")),
		F("P", s("b"), s("c"), s("a")),
		F("R", s("a"), i(5)),
		F("R", s("a"), i(2)),
	)
	proj := d.Project(map[string][]int{"P": {0, 1}, "R": {0, 1}})
	want := NewInstance(
		F("P", s("a"), s("b")),
		F("P", s("b"), s("c")),
		F("R", s("a"), i(5)),
		F("R", s("a"), i(2)),
	)
	if !proj.Equal(want) {
		t.Errorf("Project = %v, want %v", proj, want)
	}

	// A(γ) = {P[1],P[3],R[1],R[2]} (0-based P{0,2}, R{0,1}): P collapses.
	proj2 := d.Project(map[string][]int{"P": {0, 2}, "R": {0, 1}})
	want2 := NewInstance(
		F("P", s("a"), s("a")),
		F("P", s("b"), s("a")),
		F("R", s("a"), i(5)),
		F("R", s("a"), i(2)),
	)
	if !proj2.Equal(want2) {
		t.Errorf("Project(γ) = %v, want %v", proj2, want2)
	}
}

func TestProjectCanCollapseTuples(t *testing.T) {
	d := NewInstance(F("P", s("a"), s("x")), F("P", s("a"), s("y")))
	proj := d.Project(map[string][]int{"P": {0}})
	if proj.Len() != 1 {
		t.Errorf("projection should collapse to one tuple, got %v", proj)
	}
}

func TestProjectToZeroAry(t *testing.T) {
	d := NewInstance(F("P", s("a"), s("x")))
	proj := d.Project(map[string][]int{"P": {}})
	if proj.Len() != 1 || !proj.Has(F("P")) {
		t.Errorf("0-ary projection = %v", proj)
	}
}

func TestDiff(t *testing.T) {
	// Example 16: D = {Q(a,b), P(a,c)}, D2 = {P(a,c), Q(a,null)}.
	d := NewInstance(F("Q", s("a"), s("b")), F("P", s("a"), s("c")))
	d2 := NewInstance(F("P", s("a"), s("c")), F("Q", s("a"), n()))
	dl := Diff(d, d2)
	if len(dl.Removed) != 1 || !dl.Removed[0].Equal(F("Q", s("a"), s("b"))) {
		t.Errorf("Removed = %v", dl.Removed)
	}
	if len(dl.Added) != 1 || !dl.Added[0].Equal(F("Q", s("a"), n())) {
		t.Errorf("Added = %v", dl.Added)
	}
	if dl.Size() != 2 {
		t.Errorf("Size = %d", dl.Size())
	}
	empty := Diff(d, d.Clone())
	if empty.Size() != 0 {
		t.Errorf("self diff = %v", empty)
	}
}

func TestInstanceKeyCanonical(t *testing.T) {
	d1 := NewInstance(F("P", s("a")), F("Q", s("b")))
	d2 := NewInstance(F("Q", s("b")), F("P", s("a")))
	if d1.Key() != d2.Key() {
		t.Error("Key not canonical across insertion orders")
	}
	d2.Insert(F("P", s("c")))
	if d1.Key() == d2.Key() {
		t.Error("distinct instances share a key")
	}
}

func TestInstanceString(t *testing.T) {
	d := NewInstance(F("Q", s("b")), F("P", s("a")))
	if got := d.String(); got != "{P(a), Q(b)}" {
		t.Errorf("String = %q", got)
	}
}

// genTuple builds a tuple from quick-generated data.
func genTuple(raw []uint8) Tuple {
	tp := make(Tuple, 0, len(raw)%5)
	for idx := 0; idx < len(raw) && idx < 4; idx++ {
		switch raw[idx] % 3 {
		case 0:
			tp = append(tp, n())
		case 1:
			tp = append(tp, i(int64(raw[idx])))
		default:
			tp = append(tp, s(string(rune('a'+raw[idx]%26))))
		}
	}
	return tp
}

func TestQuickDeltaInvariants(t *testing.T) {
	// For random instance pairs: Diff(d,d)=∅, Removed ⊆ d, Added ⊆ e,
	// and applying the delta to d yields e.
	f := func(raws [][]uint8) bool {
		d, e := NewInstance(), NewInstance()
		for idx, raw := range raws {
			fct := Fact{Pred: "P", Args: genTuple(raw)}
			if idx%2 == 0 {
				d.Insert(fct)
			}
			if idx%3 == 0 {
				e.Insert(fct)
			}
		}
		dl := Diff(d, e)
		applied := d.Clone()
		for _, r := range dl.Removed {
			if !d.Has(r) || e.Has(r) {
				return false
			}
			applied.Delete(r)
		}
		for _, a := range dl.Added {
			if d.Has(a) || !e.Has(a) {
				return false
			}
			applied.Insert(a)
		}
		return applied.Equal(e) && Diff(d, d).Size() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectionMonotone(t *testing.T) {
	// |D^A| <= |D| and every projected fact comes from some original fact.
	f := func(raws [][]uint8) bool {
		d := NewInstance()
		for _, raw := range raws {
			tp := genTuple(raw)
			if len(tp) >= 2 {
				d.Insert(Fact{Pred: "P", Args: tp[:2]})
			}
		}
		proj := d.Project(map[string][]int{"P": {0}})
		if proj.Len() > d.Len() {
			return false
		}
		for _, pf := range proj.Facts() {
			found := false
			for _, of := range d.Facts() {
				if of.Args[0].Eq(pf.Args[0]) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
