package nullsem

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/relational"
	"repro/internal/term"
)

func TestEmptyDatabaseSatisfiesEverything(t *testing.T) {
	// Section 2: "sets of constraints of this form are always consistent
	// in the classical sense, because the empty database always
	// satisfies them."
	d := relational.NewInstance()
	pool := constraintPool()
	for _, ic := range pool {
		for _, sem := range AllSemantics() {
			if !SatisfiesIC(d, ic, sem) {
				t.Errorf("empty database violates %s under %v", ic, sem)
			}
		}
	}
}

func TestZeroAryPredicates(t *testing.T) {
	// flag() → P(x) is expressible: a 0-ary antecedent fires iff the
	// fact is present.
	ic := &constraint.IC{
		Name: "z",
		Body: []term.Atom{atom("flag")},
		Head: []term.Atom{atom("P", v("x"))},
	}
	empty := relational.NewInstance()
	if !SatisfiesIC(empty, ic, NullAware) {
		t.Error("no flag, no obligation")
	}
	withFlag := relational.NewInstance(fact("flag"))
	if SatisfiesIC(withFlag, ic, NullAware) {
		t.Error("flag set but no P tuple: must violate")
	}
	withFlag.Insert(fact("P", s("a")))
	if !SatisfiesIC(withFlag, ic, NullAware) {
		t.Error("flag and P(a): must satisfy")
	}
	// The projection oracle agrees on 0-ary edge cases.
	if SatisfiesICOracle(relational.NewInstance(fact("flag")), ic) {
		t.Error("oracle disagrees on the violating instance")
	}
}

func TestNoRelevantAttributesConstraint(t *testing.T) {
	// P(x,y) → ∃z Q(z): A(ψ) = ∅; satisfaction degenerates to
	// "P empty or Q non-empty".
	ic := &constraint.IC{
		Name: "empties",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("Q", v("z"))},
	}
	if got := ic.RelevantAttrs().String(); got != "{}" {
		t.Fatalf("A(ψ) = %s, want empty", got)
	}
	d := relational.NewInstance(fact("P", s("a"), s("b")))
	if SatisfiesIC(d, ic, NullAware) {
		t.Error("P non-empty, Q empty: must violate")
	}
	d.Insert(fact("Q", s("anything")))
	if !SatisfiesIC(d, ic, NullAware) {
		t.Error("any Q tuple satisfies")
	}
	// Even a null-only Q tuple works (no relevant positions remain).
	d2 := relational.NewInstance(fact("P", s("a"), s("b")), fact("Q", n()))
	if !SatisfiesIC(d2, ic, NullAware) {
		t.Error("Q(null) must satisfy a projection-to-zero constraint")
	}
	if !SatisfiesICOracle(d2, ic) {
		t.Error("oracle disagrees")
	}
}

func TestInsertionAllowedExistingFact(t *testing.T) {
	d := relational.NewInstance(fact("P", s("a")))
	ic := &constraint.IC{
		Name: "r",
		Body: []term.Atom{atom("P", v("x"))},
		Head: []term.Atom{atom("R", v("x"))},
	}
	set := constraint.MustSet([]*constraint.IC{ic}, nil)
	// The database is already inconsistent; re-inserting an existing
	// fact reports the current state.
	if InsertionAllowed(d, set, fact("P", s("a")), NullAware) {
		t.Error("re-inserting into an inconsistent database must report false")
	}
	d.Insert(fact("R", s("a")))
	if !InsertionAllowed(d, set, fact("P", s("a")), NullAware) {
		t.Error("re-inserting into a consistent database must report true")
	}
	// InsertionAllowed must not mutate the database.
	if d.Has(fact("P", s("b"))) {
		t.Fatal("test setup broken")
	}
	InsertionAllowed(d, set, fact("P", s("b")), NullAware)
	if d.Has(fact("P", s("b"))) {
		t.Error("InsertionAllowed mutated the instance")
	}
}

func TestConstantsInRICHead(t *testing.T) {
	// P(x) → ∃z Q(x, "active", z): the constant position is relevant
	// and must match exactly.
	ic := &constraint.IC{
		Name: "c",
		Body: []term.Atom{atom("P", v("x"))},
		Head: []term.Atom{atom("Q", v("x"), term.CStr("active"), v("z"))},
	}
	d := relational.NewInstance(fact("P", s("a")), fact("Q", s("a"), s("inactive"), s("w")))
	if SatisfiesIC(d, ic, NullAware) {
		t.Error("witness with wrong constant must not satisfy")
	}
	d.Insert(fact("Q", s("a"), s("active"), n()))
	if !SatisfiesIC(d, ic, NullAware) {
		t.Error("witness with matching constant and null existential must satisfy")
	}
	if !SatisfiesICOracle(d, ic) {
		t.Error("oracle disagrees")
	}
}

func TestSelfJoinViolationSupports(t *testing.T) {
	// The same fact may support a violation twice through a self join;
	// the Support list must carry both occurrences.
	den := &constraint.IC{Name: "d", Body: []term.Atom{atom("P", v("x"), v("y")), atom("P", v("y"), v("x"))}}
	d := relational.NewInstance(fact("P", s("a"), s("a")))
	vs := CheckIC(d, den, NullAware)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if len(vs[0].Support) != 2 {
		t.Errorf("support = %v, want the fact twice", vs[0].Support)
	}
}
