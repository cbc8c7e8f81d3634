package repair

import (
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/nullsem"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

func v(name string) term.T                       { return term.V(name) }
func atom(pred string, args ...term.T) term.Atom { return term.NewAtom(pred, args...) }
func s(x string) value.V                         { return value.Str(x) }
func i(x int64) value.V                          { return value.Int(x) }
func n() value.V                                 { return value.Null() }
func fact(pred string, args ...value.V) relational.Fact {
	return relational.F(pred, args...)
}
func inst(facts ...relational.Fact) *relational.Instance {
	return relational.NewInstance(facts...)
}

func mustRepairs(t *testing.T, d *relational.Instance, set *constraint.Set, opts Options) Result {
	t.Helper()
	res, err := Repairs(d, set, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func wantRepairSet(t *testing.T, got []*relational.Instance, want []*relational.Instance) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d repairs, want %d:\ngot: %v\nwant: %v", len(got), len(want), got, want)
	}
	gotKeys := map[string]bool{}
	for _, g := range got {
		gotKeys[g.Key()] = true
	}
	for _, w := range want {
		if !gotKeys[w.Key()] {
			t.Errorf("missing repair %v\ngot %v", w, got)
		}
	}
}

// --- Definition 6 order ------------------------------------------------------

func TestLeqDExample16(t *testing.T) {
	d := inst(fact("Q", s("a"), s("b")), fact("P", s("a"), s("c")))
	d1 := inst() // empty
	d2 := inst(fact("P", s("a"), s("c")), fact("Q", s("a"), n()))
	if LeqD(d, d2, d1) {
		t.Error("D2 ≤_D D1 must fail (no fresh Q(a,·) insertion in Δ1)")
	}
	if LeqD(d, d1, d2) {
		t.Error("D1 ≤_D D2 must fail (P(a,c) ∉ Δ2)")
	}
}

func TestLeqDExample17(t *testing.T) {
	d := inst(fact("P", s("a"), n()), fact("P", s("b"), s("c")), fact("R", s("a"), s("b")))
	d1 := d.Clone()
	d1.Insert(fact("R", s("b"), n()))
	d3 := d.Clone()
	d3.Insert(fact("R", s("b"), s("d")))
	// D1 <_D D3: the null insertion R(b,null) is dominated-matched by
	// R(b,d), but not vice versa.
	if !LeqD(d, d1, d3) {
		t.Error("D1 ≤_D D3 must hold")
	}
	if LeqD(d, d3, d1) {
		t.Error("D3 ≤_D D1 must fail")
	}
	if !LessD(d, d1, d3) {
		t.Error("D1 <_D D3 must hold")
	}
}

func TestLeqDReflexive(t *testing.T) {
	d := inst(fact("P", s("a")))
	d1 := inst(fact("P", s("a")), fact("Q", s("a"), n()))
	if !LeqD(d, d1, d1) {
		t.Error("≤_D must be reflexive")
	}
	// The literal reading is not reflexive on instances with null
	// insertions — the discriminating wrinkle documented in DESIGN.md.
	if LeqDLiteral(d, d1, d1) {
		t.Error("literal Definition 6 is expected to be irreflexive here")
	}
}

func TestLeqDGratuitousDeletion(t *testing.T) {
	// The case where the literal reading admits a spurious repair: an
	// instance that gratuitously deletes an unrelated fact is
	// incomparable under the literal reading but dominated under ours.
	d := inst(fact("P", s("a")), fact("R", s("b")))
	good := inst(fact("P", s("a")), fact("R", s("b")), fact("Q", s("a"), n()))
	spurious := inst(fact("P", s("a")), fact("Q", s("a"), n()))
	if !LessD(d, good, spurious) {
		t.Error("good must strictly dominate the gratuitous deletion")
	}
	if LeqDLiteral(d, good, spurious) {
		t.Error("literal reading unexpectedly compares the two")
	}
}

func TestSubsetDelta(t *testing.T) {
	d := inst(fact("P", s("a")), fact("P", s("b")))
	d1 := inst(fact("P", s("a")))
	d2 := inst()
	if !SubsetDelta(d, d1, d2) || SubsetDelta(d, d2, d1) {
		t.Error("subset order broken")
	}
	if !SubsetDelta(d, d1, d1) {
		t.Error("subset order must be reflexive")
	}
}

// --- Examples 14 / 15 --------------------------------------------------------

func courseStudent() (*relational.Instance, *constraint.Set) {
	d := inst(
		fact("Course", i(21), s("C15")),
		fact("Course", i(34), s("C18")),
		fact("Student", i(21), s("Ann")),
		fact("Student", i(45), s("Paul")),
	)
	ric := &constraint.IC{
		Name: "fk",
		Body: []term.Atom{atom("Course", v("id"), v("code"))},
		Head: []term.Atom{atom("Student", v("id"), v("name"))},
	}
	return d, constraint.MustSet([]*constraint.IC{ric}, nil)
}

func TestExample15NullBasedRepairs(t *testing.T) {
	d, set := courseStudent()
	res := mustRepairs(t, d, set, Options{})
	del := inst(
		fact("Course", i(21), s("C15")),
		fact("Student", i(21), s("Ann")),
		fact("Student", i(45), s("Paul")),
	)
	add := d.Clone()
	add.Insert(fact("Student", i(34), n()))
	wantRepairSet(t, res.Repairs, []*relational.Instance{del, add})
}

func TestExample14ClassicRepairs(t *testing.T) {
	d, set := courseStudent()
	res, err := Repairs(d, set, Options{Mode: Classic})
	if err != nil {
		t.Fatal(err)
	}
	// Classic repairs: one deletion plus one insertion Student(34, µ)
	// per active-domain value µ (7 values here). The paper notes this
	// yields "a possibly infinite number of repairs" over an infinite
	// domain; restricted to the active domain we get 1 + |adom|.
	adom := d.ActiveDomain()
	if want := 1 + len(adom); len(res.Repairs) != want {
		t.Fatalf("classic repairs = %d, want %d", len(res.Repairs), want)
	}
	for _, r := range res.Repairs {
		for _, f := range relational.Diff(d, r).Added {
			if f.Args.HasNull() {
				t.Errorf("classic repair inserted a null: %v", f)
			}
		}
	}
}

// --- Example 16 --------------------------------------------------------------

func TestExample16(t *testing.T) {
	// ψ1: P(x,y) → ∃z Q(x,z); ψ2: Q(x,y) → y ≠ b (non-generic check).
	d := inst(fact("Q", s("a"), s("b")), fact("P", s("a"), s("c")))
	psi1 := &constraint.IC{
		Name: "psi1",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("Q", v("x"), v("z"))},
	}
	psi2 := &constraint.IC{
		Name: "psi2",
		Body: []term.Atom{atom("Q", v("x"), v("y"))},
		Phi:  []term.Builtin{{Op: term.NEQ, L: v("y"), R: term.CStr("b")}},
	}
	set := constraint.MustSet([]*constraint.IC{psi1, psi2}, nil)
	res := mustRepairs(t, d, set, Options{})
	// The paper lists D2 = {P(a,b), Q(a,null)}; P(a,b) is a typo for the
	// untouched original P(a,c) (consistent with Δ(D,D2) as printed).
	d1 := inst()
	d2 := inst(fact("P", s("a"), s("c")), fact("Q", s("a"), n()))
	wantRepairSet(t, res.Repairs, []*relational.Instance{d1, d2})
}

// --- Example 17 --------------------------------------------------------------

func TestExample17(t *testing.T) {
	d := inst(fact("P", s("a"), n()), fact("P", s("b"), s("c")), fact("R", s("a"), s("b")))
	ric := &constraint.IC{
		Name: "ric",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("R", v("x"), v("z"))},
	}
	set := constraint.MustSet([]*constraint.IC{ric}, nil)
	res := mustRepairs(t, d, set, Options{})
	d1 := d.Clone()
	d1.Insert(fact("R", s("b"), n()))
	d2 := inst(fact("P", s("a"), n()), fact("R", s("a"), s("b")))
	wantRepairSet(t, res.Repairs, []*relational.Instance{d1, d2})

	// D3 (insert R(b,d) instead) satisfies IC but is not a repair.
	d3 := d.Clone()
	d3.Insert(fact("R", s("b"), s("d")))
	if !nullsem.Satisfies(d3, set, nullsem.NullAware) {
		t.Fatal("D3 must satisfy the IC")
	}
	ok, err := IsRepair(d, set, d3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("D3 must not be a repair")
	}
}

// --- Example 18 (cyclic RICs, Theorem 2 decidability) ------------------------

func example18() (*relational.Instance, *constraint.Set) {
	d := inst(fact("P", s("a"), s("b")), fact("P", n(), s("a")), fact("T", s("c")))
	uic := &constraint.IC{
		Name: "uic",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("T", v("x"))},
	}
	ric := &constraint.IC{
		Name: "ric",
		Body: []term.Atom{atom("T", v("x"))},
		Head: []term.Atom{atom("P", v("y"), v("x"))},
	}
	return d, constraint.MustSet([]*constraint.IC{uic, ric}, nil)
}

func TestExample18CyclicRepairs(t *testing.T) {
	d, set := example18()
	res := mustRepairs(t, d, set, Options{})
	d1 := inst(fact("P", s("a"), s("b")), fact("P", n(), s("a")), fact("T", s("c")),
		fact("P", n(), s("c")), fact("T", s("a")))
	d2 := inst(fact("P", s("a"), s("b")), fact("P", n(), s("a")), fact("T", s("a")))
	d3 := inst(fact("P", n(), s("a")), fact("T", s("c")), fact("P", n(), s("c")))
	d4 := inst(fact("P", n(), s("a")))
	wantRepairSet(t, res.Repairs, []*relational.Instance{d1, d2, d3, d4})

	// The D5 of the example (insert T(a) and a non-null witness for
	// T(c)) satisfies IC but is dominated by D1.
	d5 := d.Clone()
	d5.Insert(fact("T", s("a")))
	d5.Insert(fact("P", s("a"), s("c")))
	if !nullsem.Satisfies(d5, set, nullsem.NullAware) {
		t.Fatal("D5 must satisfy IC")
	}
	if !LessD(d, d1, d5) {
		t.Error("D1 <_D D5 must hold")
	}
}

// --- Example 19 --------------------------------------------------------------

func example19() (*relational.Instance, *constraint.Set) {
	d := inst(
		fact("R", s("a"), s("b")),
		fact("R", s("a"), s("c")),
		fact("S", s("e"), s("f")),
		fact("S", n(), s("a")),
	)
	fd := constraint.FD("R", 2, []int{0}, []int{1})
	fk := &constraint.IC{Name: "fk_S_R", Body: []term.Atom{atom("S", v("X1"), v("X2"))}, Head: []term.Atom{atom("R", v("X2"), v("Z2"))}}
	nnc := &constraint.NNC{Name: "rkey", Pred: "R", Arity: 2, Pos: 0}
	return d, constraint.MustSet(append(fd, fk), []*constraint.NNC{nnc})
}

func TestExample19Repairs(t *testing.T) {
	d, set := example19()
	if !set.NonConflicting() {
		t.Fatal("Example 19 set must be non-conflicting")
	}
	res := mustRepairs(t, d, set, Options{})
	d1 := inst(fact("R", s("a"), s("b")), fact("S", s("e"), s("f")), fact("S", n(), s("a")), fact("R", s("f"), n()))
	d2 := inst(fact("R", s("a"), s("c")), fact("S", s("e"), s("f")), fact("S", n(), s("a")), fact("R", s("f"), n()))
	d3 := inst(fact("R", s("a"), s("b")), fact("S", n(), s("a")))
	d4 := inst(fact("R", s("a"), s("c")), fact("S", n(), s("a")))
	wantRepairSet(t, res.Repairs, []*relational.Instance{d1, d2, d3, d4})
}

// --- Example 20 (conflicting NNC, Rep_d) --------------------------------------

func example20() (*relational.Instance, *constraint.Set) {
	d := inst(fact("P", s("a")), fact("P", s("b")), fact("Q", s("b"), s("c")))
	ric := &constraint.IC{
		Name: "ric",
		Body: []term.Atom{atom("P", v("x"))},
		Head: []term.Atom{atom("Q", v("x"), v("y"))},
	}
	nnc := &constraint.NNC{Name: "qnn", Pred: "Q", Arity: 2, Pos: 1}
	return d, constraint.MustSet([]*constraint.IC{ric}, []*constraint.NNC{nnc})
}

func TestExample20ConflictingSet(t *testing.T) {
	d, set := example20()
	if set.NonConflicting() {
		t.Fatal("Example 20 set must be conflicting")
	}
	if _, err := Repairs(d, set, Options{}); err == nil {
		t.Error("Repairs must refuse a conflicting set")
	}
	res, err := RepairsD(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rep_d prefers the tuple-deletion repair: the arbitrary-value
	// insertions Q(a,µ) are all dominated by the (hypothetical)
	// Q(a,null) repair of IC′.
	del := inst(fact("P", s("b")), fact("Q", s("b"), s("c")))
	wantRepairSet(t, res.Repairs, []*relational.Instance{del})
}

// --- General properties -------------------------------------------------------

func TestConsistentDatabaseHasItselfAsOnlyRepair(t *testing.T) {
	d, set := example19()
	res := mustRepairs(t, d, set, Options{})
	for _, r := range res.Repairs {
		fixed := mustRepairs(t, r, set, Options{})
		if len(fixed.Repairs) != 1 || fixed.Repairs[0].Key() != r.Key() {
			t.Errorf("repair %v is not its own unique repair", r)
		}
	}
}

func TestRepairsAreConsistentAndIncomparable(t *testing.T) {
	d, set := example18()
	res := mustRepairs(t, d, set, Options{})
	for _, r := range res.Repairs {
		if !nullsem.Satisfies(r, set, nullsem.NullAware) {
			t.Errorf("repair %v inconsistent", r)
		}
	}
	for x, r1 := range res.Repairs {
		for y, r2 := range res.Repairs {
			if x != y && LessD(d, r1, r2) {
				t.Errorf("repairs comparable: %v < %v", r1, r2)
			}
		}
	}
}

func TestProposition1DomainBound(t *testing.T) {
	// adom(D') ⊆ adom(D) ∪ const(IC) ∪ {null} for every repair.
	d, set := example18()
	allowed := map[string]bool{}
	for _, c := range d.ActiveDomain() {
		allowed[c.Key()] = true
	}
	for _, c := range set.Constants() {
		allowed[c.Const.Key()] = true
	}
	res := mustRepairs(t, d, set, Options{})
	if len(res.Repairs) == 0 {
		t.Fatal("Proposition 1: repair set must be non-empty")
	}
	for _, r := range res.Repairs {
		for _, c := range r.ActiveDomain() {
			if !allowed[c.Key()] {
				t.Errorf("repair %v uses constant %v outside the Proposition 1 domain", r, c)
			}
		}
	}
}

func TestStateLimit(t *testing.T) {
	d, set := example18()
	if _, err := Repairs(d, set, Options{MaxStates: 2}); err != ErrStateLimit {
		t.Errorf("err = %v, want ErrStateLimit", err)
	}
}

func TestNNCOnlyRepair(t *testing.T) {
	d := inst(fact("R", n(), s("b")), fact("R", s("a"), s("b")))
	set := constraint.MustSet(nil, []*constraint.NNC{{Pred: "R", Arity: 2, Pos: 0}})
	res := mustRepairs(t, d, set, Options{})
	want := inst(fact("R", s("a"), s("b")))
	wantRepairSet(t, res.Repairs, []*relational.Instance{want})
}

// --- Brute-force cross-check ---------------------------------------------------

// bruteRepairs enumerates every instance over the given atom universe,
// keeps the consistent ones, and filters ≤_D-minimality — Definition 7
// executed literally. Only usable for tiny universes.
func bruteRepairs(d *relational.Instance, set *constraint.Set, universe []relational.Fact) []*relational.Instance {
	var consistent []*relational.Instance
	nAtoms := len(universe)
	for mask := 0; mask < 1<<nAtoms; mask++ {
		cand := relational.NewInstance()
		for b := 0; b < nAtoms; b++ {
			if mask&(1<<b) != 0 {
				cand.Insert(universe[b])
			}
		}
		if nullsem.Satisfies(cand, set, nullsem.NullAware) {
			consistent = append(consistent, cand)
		}
	}
	return MinimalUnder(d, consistent, LeqD)
}

// atomUniverse builds all facts for the given predicate arities over the
// constants {a, null}.
func atomUniverse() []relational.Fact {
	vals := []value.V{s("a"), n()}
	var out []relational.Fact
	for _, p := range vals {
		out = append(out, fact("P", p))
	}
	for _, x := range vals {
		for _, y := range vals {
			out = append(out, fact("R", x, y))
		}
	}
	return out
}

func bruteSets() []*constraint.Set {
	ric := &constraint.IC{
		Name: "ric",
		Body: []term.Atom{atom("P", v("x"))},
		Head: []term.Atom{atom("R", v("x"), v("z"))},
	}
	uicBack := &constraint.IC{
		Name: "back",
		Body: []term.Atom{atom("R", v("x"), v("y"))},
		Head: []term.Atom{atom("P", v("x"))},
	}
	denial := &constraint.IC{
		Name: "den",
		Body: []term.Atom{atom("P", v("x")), atom("R", v("x"), v("x"))},
	}
	nnc := &constraint.NNC{Name: "nn", Pred: "R", Arity: 2, Pos: 0}
	return []*constraint.Set{
		constraint.MustSet([]*constraint.IC{ric}, nil),
		constraint.MustSet([]*constraint.IC{ric, uicBack}, nil), // cyclic
		constraint.MustSet([]*constraint.IC{denial}, nil),
		constraint.MustSet([]*constraint.IC{ric}, []*constraint.NNC{nnc}),
		constraint.MustSet([]*constraint.IC{uicBack, denial}, nil),
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	universe := atomUniverse()
	rng := rand.New(rand.NewSource(11))
	sets := bruteSets()
	for trial := 0; trial < 60; trial++ {
		d := relational.NewInstance()
		for _, f := range universe {
			if rng.Intn(2) == 0 {
				d.Insert(f)
			}
		}
		set := sets[trial%len(sets)]
		res, err := Repairs(d, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		brute := bruteRepairs(d, set, universe)
		if len(res.Repairs) != len(brute) {
			t.Fatalf("trial %d (set %d, D=%v): search %d repairs %v, brute %d %v",
				trial, trial%len(sets), d, len(res.Repairs), res.Repairs, len(brute), brute)
		}
		bruteKeys := map[string]bool{}
		for _, b := range brute {
			bruteKeys[b.Key()] = true
		}
		for _, r := range res.Repairs {
			if !bruteKeys[r.Key()] {
				t.Fatalf("trial %d: search repair %v not in brute set %v", trial, r, brute)
			}
		}
	}
}
