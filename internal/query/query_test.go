package query

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

func v(name string) term.T                       { return term.V(name) }
func atom(pred string, args ...term.T) term.Atom { return term.NewAtom(pred, args...) }
func s(x string) value.V                         { return value.Str(x) }
func i(x int64) value.V                          { return value.Int(x) }
func n() value.V                                 { return value.Null() }

func db() *relational.Instance {
	return relational.NewInstance(
		relational.F("Course", i(21), s("C15")),
		relational.F("Course", i(34), s("C18")),
		relational.F("Student", i(21), s("Ann")),
		relational.F("Student", i(45), s("Paul")),
		relational.F("Student", i(34), n()),
	)
}

func TestEvalJoin(t *testing.T) {
	q := &Q{
		Name: "q",
		Head: []string{"Id", "Nm"},
		Disjuncts: []Conj{{
			Lits: []Literal{
				{Atom: atom("Course", v("Id"), v("Code"))},
				{Atom: atom("Student", v("Id"), v("Nm"))},
			},
		}},
	}
	got, err := Eval(db(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}
	// Sorted: (21,Ann), (34,null).
	if !got[0].Equal(relational.Tuple{i(21), s("Ann")}) {
		t.Errorf("got[0] = %v", got[0])
	}
	if !got[1].Equal(relational.Tuple{i(34), n()}) {
		t.Errorf("got[1] = %v (null must join as an ordinary constant)", got[1])
	}
}

func TestEvalNegation(t *testing.T) {
	q := &Q{
		Name: "q",
		Head: []string{"Id"},
		Disjuncts: []Conj{{
			Lits: []Literal{
				{Atom: atom("Student", v("Id"), v("Nm"))},
				{Atom: atom("Course", v("Id"), v("Code"))}, // bind Code
			},
		}},
	}
	// Students with a course.
	got, err := Eval(db(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}

	// Students with no course: need negation with bound vars only.
	qn := &Q{
		Name: "q",
		Head: []string{"Id"},
		Disjuncts: []Conj{{
			Lits: []Literal{
				{Atom: atom("Student", v("Id"), v("Nm"))},
				{Atom: atom("HasCourse", v("Id")), Neg: true},
			},
		}},
	}
	d := db()
	d.Insert(relational.F("HasCourse", i(21)))
	d.Insert(relational.F("HasCourse", i(34)))
	got, err = Eval(d, qn)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(relational.Tuple{i(45)}) {
		t.Errorf("answers = %v", got)
	}
}

func TestEvalBuiltinsAndUnion(t *testing.T) {
	q := &Q{
		Name: "q",
		Head: []string{"Id"},
		Disjuncts: []Conj{
			{
				Lits:     []Literal{{Atom: atom("Student", v("Id"), v("Nm"))}},
				Builtins: []term.Builtin{{Op: term.LT, L: v("Id"), R: term.CInt(30)}},
			},
			{
				Lits: []Literal{{Atom: atom("Course", v("Id"), term.CStr("C18"))}},
			},
		},
	}
	got, err := Eval(db(), q)
	if err != nil {
		t.Fatal(err)
	}
	// 21 (from the filter) and 34 (from the C18 course).
	if len(got) != 2 || !got[0].Equal(relational.Tuple{i(21)}) || !got[1].Equal(relational.Tuple{i(34)}) {
		t.Errorf("answers = %v", got)
	}
}

// TestEvalBoolean checks that a boolean query yields the empty tuple when
// it holds and nothing when it fails.
func TestEvalBoolean(t *testing.T) {
	q := &Q{
		Name:      "hasC15",
		Disjuncts: []Conj{{Lits: []Literal{{Atom: atom("Course", v("X"), term.CStr("C15"))}}}},
	}
	ts, err := Eval(db(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || len(ts[0]) != 0 {
		t.Errorf("boolean query should hold once with the empty tuple, got %v", ts)
	}
	q2 := &Q{
		Name:      "hasC99",
		Disjuncts: []Conj{{Lits: []Literal{{Atom: atom("Course", v("X"), term.CStr("C99"))}}}},
	}
	ts, err = Eval(db(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 0 {
		t.Errorf("boolean query should fail, got %v", ts)
	}
}

func TestValidateSafety(t *testing.T) {
	bad := []*Q{
		{Name: "noDisjuncts", Head: []string{"X"}},
		{ // unbound head var
			Name: "q", Head: []string{"Z"},
			Disjuncts: []Conj{{Lits: []Literal{{Atom: atom("P", v("X"))}}}},
		},
		{ // unbound negated var
			Name: "q", Head: []string{"X"},
			Disjuncts: []Conj{{Lits: []Literal{
				{Atom: atom("P", v("X"))},
				{Atom: atom("R", v("W")), Neg: true},
			}}},
		},
		{ // unbound builtin var
			Name: "q", Head: []string{"X"},
			Disjuncts: []Conj{{
				Lits:     []Literal{{Atom: atom("P", v("X"))}},
				Builtins: []term.Builtin{{Op: term.GT, L: v("Q"), R: term.CInt(0)}},
			}},
		},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("query %s accepted", q.Name)
		}
	}
}

func TestEvalProjectionDedup(t *testing.T) {
	d := relational.NewInstance(
		relational.F("P", s("a"), s("x")),
		relational.F("P", s("a"), s("y")),
	)
	q := &Q{Name: "q", Head: []string{"X"},
		Disjuncts: []Conj{{Lits: []Literal{{Atom: atom("P", v("X"), v("Y"))}}}}}
	got, err := Eval(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("projection must deduplicate: %v", got)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	d := relational.NewInstance(
		relational.F("E", s("a"), s("a")),
		relational.F("E", s("a"), s("b")),
	)
	q := &Q{Name: "q", Head: []string{"X"},
		Disjuncts: []Conj{{Lits: []Literal{{Atom: atom("E", v("X"), v("X"))}}}}}
	got, err := Eval(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(relational.Tuple{s("a")}) {
		t.Errorf("answers = %v", got)
	}
}

func TestQueryString(t *testing.T) {
	q := &Q{
		Name: "q",
		Head: []string{"X"},
		Disjuncts: []Conj{{
			Lits:     []Literal{{Atom: atom("P", v("X"), v("Y"))}, {Atom: atom("R", v("Y")), Neg: true}},
			Builtins: []term.Builtin{{Op: term.GT, L: v("X"), R: term.CInt(3)}},
		}},
	}
	want := "q(X) :- P(X,Y), not R(Y), X > 3."
	if got := q.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
