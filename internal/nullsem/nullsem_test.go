package nullsem

import (
	"math/rand"
	"testing"

	"repro/internal/constraint"
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

func set(t *testing.T, ics []*constraint.IC, nncs []*constraint.NNC) *constraint.Set {
	t.Helper()
	cs, err := constraint.NewSet(ics, nncs)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// --- Example 4 -------------------------------------------------------------

func example4() (d *relational.Instance, psi1, psi2 *constraint.IC) {
	d = relational.NewInstance(fact("P", s("a"), s("b"), n()))
	psi1 = &constraint.IC{
		Name: "psi1",
		Body: []term.Atom{atom("P", v("x"), v("y"), v("z"))},
		Head: []term.Atom{atom("R", v("y"), v("z"))},
	}
	psi2 = &constraint.IC{
		Name: "psi2",
		Body: []term.Atom{atom("P", v("x"), v("y"), v("z"))},
		Head: []term.Atom{atom("R", v("x"), v("y"))},
	}
	return
}

func TestExample4VerdictMatrix(t *testing.T) {
	d, psi1, psi2 := example4()
	// Paper: ψ1 is consistent under [10] and simple-match (and ours),
	// inconsistent under partial- and full-match. ψ2 is consistent only
	// under [10].
	wantPsi1 := map[Semantics]bool{
		NullAware:    true,
		ClassicFO:    false,
		AllExempt:    true,
		SimpleMatch:  true,
		PartialMatch: false,
		FullMatch:    false,
	}
	wantPsi2 := map[Semantics]bool{
		NullAware:    false,
		ClassicFO:    false,
		AllExempt:    true,
		SimpleMatch:  false,
		PartialMatch: false,
		FullMatch:    false,
	}
	for sem, want := range wantPsi1 {
		if got := SatisfiesIC(d, psi1, sem); got != want {
			t.Errorf("ψ1 under %v = %v, want %v", sem, got, want)
		}
	}
	for sem, want := range wantPsi2 {
		if got := SatisfiesIC(d, psi2, sem); got != want {
			t.Errorf("ψ2 under %v = %v, want %v", sem, got, want)
		}
	}
}

// --- Example 5 -------------------------------------------------------------

func example5() (*relational.Instance, *constraint.Set) {
	d := relational.NewInstance(
		fact("Course", s("CS27"), i(21), s("W04")),
		fact("Course", s("CS18"), i(34), n()),
		fact("Course", s("CS50"), n(), s("W05")),
		fact("Exp", i(21), s("CS27"), i(3)),
		fact("Exp", i(34), s("CS18"), n()),
		fact("Exp", i(45), s("CS32"), i(2)),
	)
	// Course[ID, Code] references the key {ID, Code} of Exp, which may
	// not be null.
	fk := &constraint.IC{
		Name: "fk_Course_Exp",
		Body: []term.Atom{atom("Course", v("X1"), v("X2"), v("X3"))},
		Head: []term.Atom{atom("Exp", v("X2"), v("X1"), v("Z3"))},
	}
	keyICs := constraint.FD("Exp", 3, []int{0, 1}, []int{2})
	keyNNCs := []*constraint.NNC{
		{Name: "pk_notnull_Exp_1", Pred: "Exp", Arity: 3, Pos: 0},
		{Name: "pk_notnull_Exp_2", Pred: "Exp", Arity: 3, Pos: 1},
	}
	cs := constraint.MustSet(append([]*constraint.IC{fk}, keyICs...), keyNNCs)
	return d, cs
}

func TestExample5DB2Behaviour(t *testing.T) {
	d, cs := example5()
	// "In IBM DB2, this database is accepted as consistent."
	if !Satisfies(d, cs, NullAware) {
		t.Errorf("Example 5 inconsistent under |=_N:\n%s", Check(d, cs, NullAware))
	}
	if !Satisfies(d, cs, SimpleMatch) {
		t.Error("Example 5 inconsistent under simple-match")
	}
	// "The partial- and full-match would not accept the database."
	if Satisfies(d, cs, PartialMatch) {
		t.Error("Example 5 consistent under partial-match")
	}
	if Satisfies(d, cs, FullMatch) {
		t.Error("Example 5 consistent under full-match")
	}
	// "If we try to insert tuple (CS41,18,null) into table Course, it
	// would be rejected by DB2."
	if InsertionAllowed(d, cs, fact("Course", s("CS41"), i(18), n()), NullAware) {
		t.Error("insertion of (CS41,18,null) must be rejected under |=_N")
	}
	if InsertionAllowed(d, cs, fact("Course", s("CS41"), i(18), n()), SimpleMatch) {
		t.Error("insertion of (CS41,18,null) must be rejected under simple-match")
	}
	// A matching insertion is fine.
	if !InsertionAllowed(d, cs, fact("Course", s("CS32"), i(45), n()), NullAware) {
		t.Error("insertion of (CS32,45,null) must be accepted")
	}
}

// --- Example 6 -------------------------------------------------------------

func example6() (*relational.Instance, *constraint.Set) {
	d := relational.NewInstance(
		fact("Emp", i(32), n(), i(1000)),
		fact("Emp", i(41), s("Paul"), n()),
	)
	chk := &constraint.IC{
		Name: "salary",
		Body: []term.Atom{atom("Emp", v("id"), v("name"), v("salary"))},
		Phi:  []term.Builtin{{Op: term.GT, L: v("salary"), R: term.CInt(100)}},
	}
	return d, constraint.MustSet([]*constraint.IC{chk}, nil)
}

func TestExample6CheckConstraint(t *testing.T) {
	d, cs := example6()
	for _, sem := range []Semantics{NullAware, AllExempt, SimpleMatch, PartialMatch} {
		if !Satisfies(d, cs, sem) {
			t.Errorf("Example 6 inconsistent under %v", sem)
		}
	}
	// "Tuple (32, null, 50) could not be inserted because Salary > 100
	// evaluates to false."
	if InsertionAllowed(d, cs, fact("Emp", i(32), n(), i(50)), NullAware) {
		t.Error("insertion of (32,null,50) must be rejected")
	}
	if InsertionAllowed(d, cs, fact("Emp", i(32), n(), i(50)), SimpleMatch) {
		t.Error("insertion of (32,null,50) must be rejected under simple-match")
	}
}

// --- Example 8 -------------------------------------------------------------

func example8IC() *constraint.IC {
	// Person(x,y,z,w) ∧ Person(z,s,t,u) → u > w+15.
	return &constraint.IC{
		Name: "age-gap",
		Body: []term.Atom{
			atom("Person", v("x"), v("y"), v("z"), v("w")),
			atom("Person", v("z"), v("s"), v("t"), v("u")),
		},
		Phi: []term.Builtin{{Op: term.GT, L: v("u"), R: v("w"), Offset: 15}},
	}
}

func TestExample8MultiRowCheck(t *testing.T) {
	d := relational.NewInstance(
		fact("Person", s("Lee"), s("Rod"), s("Mary"), i(27)),
		fact("Person", s("Rod"), s("Joe"), s("Tess"), i(55)),
		fact("Person", s("Mary"), s("Adam"), s("Ann"), n()),
	)
	ic := example8IC()
	if !SatisfiesIC(d, ic, NullAware) {
		t.Errorf("Example 8 must be consistent: %v", CheckIC(d, ic, NullAware))
	}
	// With Mary's age known and too low, the join Lee->Mary violates:
	// u=30 > 27+15 is false.
	d2 := relational.NewInstance(
		fact("Person", s("Lee"), s("Rod"), s("Mary"), i(27)),
		fact("Person", s("Mary"), s("Adam"), s("Ann"), i(30)),
	)
	if SatisfiesIC(d2, ic, NullAware) {
		t.Error("modified Example 8 must be inconsistent")
	}
	// u=43 > 27+15 = 42 holds.
	d3 := relational.NewInstance(
		fact("Person", s("Lee"), s("Rod"), s("Mary"), i(27)),
		fact("Person", s("Mary"), s("Adam"), s("Ann"), i(43)),
	)
	if !SatisfiesIC(d3, ic, NullAware) {
		t.Error("u=43 satisfies u > w+15 for w=27")
	}
}

// --- Example 9 -------------------------------------------------------------

func TestExample9NullInReferencedAttribute(t *testing.T) {
	d := relational.NewInstance(
		fact("Course", s("CS18"), s("W04"), i(34)),
		fact("Employee", s("W04"), n()),
	)
	ic := &constraint.IC{
		Name: "ex9",
		Body: []term.Atom{atom("Course", v("x"), v("y"), v("z"))},
		Head: []term.Atom{atom("Employee", v("y"), v("z"))},
	}
	// "(W04,34) does not provide less or equal information than
	// (W04,null). Therefore the database is inconsistent."
	if SatisfiesIC(d, ic, NullAware) {
		t.Error("Example 9 must be inconsistent under |=_N")
	}
	// With a proper witness it is consistent.
	d.Insert(fact("Employee", s("W04"), i(34)))
	if !SatisfiesIC(d, ic, NullAware) {
		t.Error("Example 9 with witness must be consistent")
	}
}

// --- Example 11 ------------------------------------------------------------

func example11() (*relational.Instance, *constraint.Set) {
	d := relational.NewInstance(
		fact("P", s("a"), s("d"), s("e")),
		fact("P", s("b"), n(), s("g")),
		fact("R", s("a"), s("d")),
		fact("T", s("b")),
	)
	a := &constraint.IC{
		Name: "a",
		Body: []term.Atom{atom("P", v("x"), v("y"), v("z"))},
		Head: []term.Atom{atom("R", v("x"), v("y"))},
	}
	b := &constraint.IC{
		Name: "b",
		Body: []term.Atom{atom("T", v("x"))},
		Head: []term.Atom{atom("P", v("x"), v("y"), v("z"))},
	}
	return d, constraint.MustSet([]*constraint.IC{a, b}, nil)
}

func TestExample11(t *testing.T) {
	d, cs := example11()
	if !Satisfies(d, cs, NullAware) {
		t.Errorf("Example 11 must be consistent:\n%s", Check(d, cs, NullAware))
	}
	// "If we add tuple P(f,d,null) to D, it becomes inconsistent wrt (a)."
	d.Insert(fact("P", s("f"), s("d"), n()))
	r := Check(d, cs, NullAware)
	if r.Consistent() {
		t.Fatal("Example 11 + P(f,d,null) must be inconsistent")
	}
	if len(r.IC) != 1 || r.IC[0].IC.Name != "a" {
		t.Errorf("violations = %v", r.IC)
	}
}

// --- Example 12 ------------------------------------------------------------

func TestExample12JoinThroughNull(t *testing.T) {
	d := relational.NewInstance(
		fact("P1", s("a"), s("b"), s("c")),
		fact("P1", s("d"), n(), s("c")),
		fact("P1", s("b"), s("e"), n()),
		fact("P1", n(), s("b"), s("b")),
		fact("P2", s("b"), s("a")),
		fact("P2", s("e"), s("c")),
		fact("P2", s("d"), n()),
		fact("P2", n(), s("b")),
		fact("Q", s("a"), s("a"), s("c")),
		fact("Q", s("b"), n(), s("c")),
		fact("Q", s("b"), s("c"), s("d")),
		fact("Q", n(), s("c"), s("a")),
	)
	ic := &constraint.IC{
		Name: "ex12",
		Body: []term.Atom{atom("P1", v("x"), v("y"), v("w")), atom("P2", v("y"), v("z"))},
		Head: []term.Atom{atom("Q", v("x"), v("z"), v("u"))},
	}
	if !SatisfiesIC(d, ic, NullAware) {
		t.Errorf("Example 12 must be consistent: %v", CheckIC(d, ic, NullAware))
	}
	// The join P1(d,null,c) ⋈ P2(null,b) exists under the
	// ordinary-constant treatment; dropping the IsNull exemption
	// (ClassicFO) exposes violations.
	if SatisfiesIC(d, ic, ClassicFO) {
		t.Error("Example 12 should be inconsistent classically")
	}
}

// --- Example 13 ------------------------------------------------------------

func TestExample13RepeatedExistential(t *testing.T) {
	d := relational.NewInstance(
		fact("P", s("a"), s("b")),
		fact("P", n(), s("c")),
		fact("Q", s("a"), n(), n()),
	)
	ic := &constraint.IC{
		Name: "ex13",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("Q", v("x"), v("z"), v("z"))},
	}
	if !SatisfiesIC(d, ic, NullAware) {
		t.Error("Example 13 must be consistent: null witnesses satisfy ∃z Q(x,z,z)")
	}
	// Under SQL-style matching (null never equals null) the witness
	// fails, so simple-match rejects.
	if SatisfiesIC(d, ic, SimpleMatch) {
		t.Error("Example 13 should be inconsistent under simple-match")
	}
	// A witness with distinct non-null values in the repeated positions
	// does not satisfy the constraint.
	d2 := relational.NewInstance(
		fact("P", s("a"), s("b")),
		fact("Q", s("a"), s("u"), s("w")),
	)
	if SatisfiesIC(d2, ic, NullAware) {
		t.Error("witness with unequal repeated positions must not satisfy")
	}
	d2.Insert(fact("Q", s("a"), s("u"), s("u")))
	if !SatisfiesIC(d2, ic, NullAware) {
		t.Error("witness with equal repeated positions must satisfy")
	}
}

// --- NNCs ------------------------------------------------------------------

func TestNNC(t *testing.T) {
	d := relational.NewInstance(
		fact("R", s("a"), n()),
		fact("R", n(), s("b")),
	)
	nnc := &constraint.NNC{Name: "nn", Pred: "R", Arity: 2, Pos: 0}
	got := CheckNNC(d, nnc)
	if len(got) != 1 || !got[0].Equal(fact("R", n(), s("b"))) {
		t.Errorf("CheckNNC = %v", got)
	}
	cs := set(t, nil, []*constraint.NNC{nnc})
	if Satisfies(d, cs, NullAware) {
		t.Error("NNC violation not detected by Satisfies")
	}
	r := Check(d, cs, NullAware)
	if r.Consistent() || len(r.NNC) != 1 {
		t.Errorf("Check = %v", r)
	}
}

// --- Violations and reports --------------------------------------------------

func TestViolationDetails(t *testing.T) {
	d := relational.NewInstance(fact("P", s("a"), s("b")))
	ic := &constraint.IC{
		Name: "t",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("R", v("x"))},
	}
	vs := CheckIC(d, ic, NullAware)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if !vs[0].Subst["x"].Eq(s("a")) || !vs[0].Subst["y"].Eq(s("b")) {
		t.Errorf("Subst = %v", vs[0].Subst)
	}
	if len(vs[0].Support) != 1 || !vs[0].Support[0].Equal(fact("P", s("a"), s("b"))) {
		t.Errorf("Support = %v", vs[0].Support)
	}
	if vs[0].String() == "" {
		t.Error("empty violation String")
	}
}

func TestDenialConstraint(t *testing.T) {
	d := relational.NewInstance(fact("P", s("a")), fact("Q", s("a")))
	den := &constraint.IC{Name: "d", Body: []term.Atom{atom("P", v("x")), atom("Q", v("x"))}}
	if SatisfiesIC(d, den, NullAware) {
		t.Error("denial violation not detected")
	}
	d2 := relational.NewInstance(fact("P", s("a")), fact("Q", s("b")))
	if !SatisfiesIC(d2, den, NullAware) {
		t.Error("denial false positive")
	}
	// Null in a relevant (join) attribute exempts.
	d3 := relational.NewInstance(fact("P", n()), fact("Q", n()))
	if !SatisfiesIC(d3, den, NullAware) {
		t.Error("null join must not violate a denial under |=_N")
	}
	if SatisfiesIC(d3, den, ClassicFO) {
		t.Error("null join must violate a denial classically")
	}
}

func TestConstantsAreRelevant(t *testing.T) {
	// P(x, a) → R(x): the constant position is relevant; a null there
	// never matches the constant, so only exact 'a' rows are checked.
	ic := &constraint.IC{
		Name: "c",
		Body: []term.Atom{atom("P", v("x"), term.CStr("a"))},
		Head: []term.Atom{atom("R", v("x"))},
	}
	d := relational.NewInstance(fact("P", s("q"), s("a")))
	if SatisfiesIC(d, ic, NullAware) {
		t.Error("missing R(q) must violate")
	}
	d2 := relational.NewInstance(fact("P", s("q"), s("b")), fact("P", s("w"), n()))
	if !SatisfiesIC(d2, ic, NullAware) {
		t.Error("non-matching constant rows must not violate")
	}
}

func TestFullMatchForcedViolation(t *testing.T) {
	// Full match: a key that is partially null violates regardless of
	// witnesses; a fully null key is exempt.
	ic := &constraint.IC{
		Name: "fk",
		Body: []term.Atom{atom("S", v("a"), v("b"))},
		Head: []term.Atom{atom("R", v("a"), v("b"), v("z"))},
	}
	partial := relational.NewInstance(fact("S", s("x"), n()), fact("R", s("x"), s("y"), i(1)))
	if SatisfiesIC(partial, ic, FullMatch) {
		t.Error("partially null key must violate full-match")
	}
	allNull := relational.NewInstance(fact("S", n(), n()))
	if !SatisfiesIC(allNull, ic, FullMatch) {
		t.Error("fully null key must be exempt under full-match")
	}
	if !SatisfiesIC(allNull, ic, PartialMatch) {
		t.Error("fully null key must be exempt under partial-match")
	}
}

func TestPartialMatchWitnessRules(t *testing.T) {
	ic := &constraint.IC{
		Name: "fk",
		Body: []term.Atom{atom("S", v("a"), v("b"))},
		Head: []term.Atom{atom("R", v("a"), v("b"))},
	}
	// Key (x, null): partial match needs R(x, w) with w non-null.
	d := relational.NewInstance(fact("S", s("x"), n()), fact("R", s("x"), n()))
	if SatisfiesIC(d, ic, PartialMatch) {
		t.Error("witness with null in open position must not satisfy partial-match")
	}
	d2 := relational.NewInstance(fact("S", s("x"), n()), fact("R", s("x"), s("w")))
	if !SatisfiesIC(d2, ic, PartialMatch) {
		t.Error("witness with non-null open position must satisfy partial-match")
	}
}

// --- No-null databases coincide with classical FO ---------------------------

func TestNoNullCoincidesWithClassical(t *testing.T) {
	// "In a database without null values, Definition 4 coincides with the
	// traditional first-order definition of IC satisfaction."
	rng := rand.New(rand.NewSource(7))
	pool := constraintPool()
	for trial := 0; trial < 300; trial++ {
		d := randomInstance(rng, false)
		ic := pool[rng.Intn(len(pool))]
		if got, want := SatisfiesIC(d, ic, NullAware), SatisfiesIC(d, ic, ClassicFO); got != want {
			t.Fatalf("trial %d: %s on %v: null-aware=%v classic=%v", trial, ic, d, got, want)
		}
	}
}

// --- Direct evaluator vs projection oracle ----------------------------------

func constraintPool() []*constraint.IC {
	return []*constraint.IC{
		{ // UIC with transfer
			Name: "p1",
			Body: []term.Atom{atom("P", v("x"), v("y"))},
			Head: []term.Atom{atom("R", v("x"))},
		},
		{ // RIC
			Name: "p2",
			Body: []term.Atom{atom("P", v("x"), v("y"))},
			Head: []term.Atom{atom("R", v("y"), v("z"))},
		},
		{ // denial with join
			Name: "p3",
			Body: []term.Atom{atom("P", v("x"), v("y")), atom("R", v("y"))},
		},
		{ // check
			Name: "p4",
			Body: []term.Atom{atom("P", v("x"), v("y"))},
			Phi:  []term.Builtin{{Op: term.NEQ, L: v("x"), R: v("y")}},
		},
		{ // repeated existential
			Name: "p5",
			Body: []term.Atom{atom("R", v("x"))},
			Head: []term.Atom{atom("Q", v("x"), v("z"), v("z"))},
		},
		{ // two head atoms
			Name: "p6",
			Body: []term.Atom{atom("P", v("x"), v("y"))},
			Head: []term.Atom{atom("R", v("x")), atom("Q", v("x"), v("y"), v("u"))},
		},
		{ // constant in body and head
			Name: "p7",
			Body: []term.Atom{atom("P", v("x"), term.CStr("a"))},
			Head: []term.Atom{atom("Q", v("x"), term.CStr("b"), v("z"))},
		},
		{ // self join
			Name: "p8",
			Body: []term.Atom{atom("P", v("x"), v("y")), atom("P", v("y"), v("z"))},
			Head: []term.Atom{atom("P", v("x"), v("z"))},
		},
	}
}

func randomInstance(rng *rand.Rand, withNulls bool) *relational.Instance {
	consts := []value.V{s("a"), s("b"), s("c")}
	if withNulls {
		consts = append(consts, n(), n()) // boost null frequency
	}
	pick := func() value.V { return consts[rng.Intn(len(consts))] }
	d := relational.NewInstance()
	for k := 0; k < rng.Intn(5); k++ {
		d.Insert(fact("P", pick(), pick()))
	}
	for k := 0; k < rng.Intn(4); k++ {
		d.Insert(fact("R", pick()))
	}
	for k := 0; k < rng.Intn(4); k++ {
		d.Insert(fact("Q", pick(), pick(), pick()))
	}
	return d
}

func TestDirectEvaluatorMatchesProjectionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := constraintPool()
	for trial := 0; trial < 2000; trial++ {
		d := randomInstance(rng, true)
		ic := pool[rng.Intn(len(pool))]
		direct := SatisfiesIC(d, ic, NullAware)
		oracle := SatisfiesICOracle(d, ic)
		if direct != oracle {
			t.Fatalf("trial %d: %s on %v: direct=%v oracle=%v (A=%v)",
				trial, ic, d, direct, oracle, ic.RelevantAttrs())
		}
	}
}

func TestSatisfiesAgreesWithCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := constraintPool()
	for trial := 0; trial < 500; trial++ {
		d := randomInstance(rng, true)
		ic := pool[rng.Intn(len(pool))]
		cs := constraint.MustSet([]*constraint.IC{ic}, nil)
		if Satisfies(d, cs, NullAware) != (len(CheckIC(d, ic, NullAware)) == 0) {
			t.Fatalf("trial %d: Satisfies disagrees with Check for %s on %v", trial, ic, d)
		}
	}
}

func TestProjectConstraintShape(t *testing.T) {
	// Example 10 ψ: P(x,y,z) → R(x,y) projects to P(x,y) → R(x,y).
	ic := &constraint.IC{
		Name: "ex10",
		Body: []term.Atom{atom("P", v("x"), v("y"), v("z"))},
		Head: []term.Atom{atom("R", v("x"), v("y"))},
	}
	pc := ProjectConstraint(ic)
	if got := pc.Body[0].String(); got != "P#3(x,y)" {
		t.Errorf("projected body = %q", got)
	}
	if got := pc.Head[0].String(); got != "R#2(x,y)" {
		t.Errorf("projected head = %q", got)
	}
	pSig := constraint.PredSig{Name: "P", Arity: 3}
	rSig := constraint.PredSig{Name: "R", Arity: 2}
	if len(pc.Positions[pSig]) != 2 || len(pc.Positions[rSig]) != 2 {
		t.Errorf("positions = %v", pc.Positions)
	}
}

func TestSemanticsString(t *testing.T) {
	if len(AllSemantics()) != 6 {
		t.Fatal("AllSemantics size")
	}
	seen := map[string]bool{}
	for _, sem := range AllSemantics() {
		str := sem.String()
		if str == "" || seen[str] {
			t.Errorf("bad semantics name %q", str)
		}
		seen[str] = true
	}
}
