// Package core holds the one-shot consistent query answering tests
// (Definition 8): every case answers on a throwaway session.New(d, set,
// opts), on the paper's examples and on randomized cross-engine workloads.
// The package has no non-test code; the engines live in internal/session.
package core

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/session"
	"repro/internal/value"
)

// example15 is the Course/Student scenario of Examples 14-15 in parser
// syntax.
func example15() (d *relational.Instance, setSrc string) {
	return parser.MustInstance(`
		course(21, c15).
		course(34, c18).
		student(21, "Ann").
		student(45, "Paul").
	`), `course(Id, Code) -> student(Id, Name).`
}

func engines() []session.Options {
	search := session.NewOptions()
	program := session.NewOptions()
	program.Engine = session.EngineProgram
	cautious := session.NewOptions()
	cautious.Engine = session.EngineProgramCautious
	return []session.Options{search, program, cautious}
}

func TestIsConsistent(t *testing.T) {
	d, setSrc := example15()
	set := parser.MustConstraints(setSrc)
	if session.New(d, set, session.NewOptions()).Consistent() {
		t.Error("Example 15 database must be inconsistent")
	}
	d2 := parser.MustInstance(`course(21, c15). student(21, "Ann").`)
	if !session.New(d2, set, session.NewOptions()).Consistent() {
		t.Error("repaired database must be consistent")
	}
}

func TestConsistentAnswersOpenQuery(t *testing.T) {
	d, setSrc := example15()
	set := parser.MustConstraints(setSrc)
	q := parser.MustQuery(`q(Id, Code) :- course(Id, Code).`)
	for _, opts := range engines() {
		ans, err := session.New(d, set, opts).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if ans.NumRepairs != 2 {
			t.Errorf("engine %v: repairs = %d, want 2", opts.Engine, ans.NumRepairs)
		}
		// course(34,c18) is deleted in one repair: only (21,c15) is
		// certain.
		if len(ans.Tuples) != 1 || !ans.Tuples[0].Equal(relational.Tuple{value.Int(21), value.Str("c15")}) {
			t.Errorf("engine %v: answers = %v", opts.Engine, ans.Tuples)
		}
	}
}

func TestConsistentAnswersSurviveInsertionRepair(t *testing.T) {
	d, setSrc := example15()
	set := parser.MustConstraints(setSrc)
	// Students: the inserted student(34, null) exists in only one
	// repair, so 34 is not a certain student id; 21 and 45 are.
	q := parser.MustQuery(`q(Id) :- student(Id, Name).`)
	for _, opts := range engines() {
		ans, err := session.New(d, set, opts).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Tuples) != 2 {
			t.Fatalf("engine %v: answers = %v", opts.Engine, ans.Tuples)
		}
		if !ans.Tuples[0].Equal(relational.Tuple{value.Int(21)}) ||
			!ans.Tuples[1].Equal(relational.Tuple{value.Int(45)}) {
			t.Errorf("engine %v: answers = %v", opts.Engine, ans.Tuples)
		}
	}
}

func TestConsistentAnswersBoolean(t *testing.T) {
	d, setSrc := example15()
	set := parser.MustConstraints(setSrc)
	yes := parser.MustQuery(`q :- course(21, c15).`)
	no := parser.MustQuery(`q :- course(34, c18).`)
	for _, opts := range engines() {
		ans, err := session.New(d, set, opts).Answer(yes)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Boolean {
			t.Errorf("engine %v: course(21,c15) must be certain", opts.Engine)
		}
		ans, err = session.New(d, set, opts).Answer(no)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Boolean {
			t.Errorf("engine %v: course(34,c18) must not be certain", opts.Engine)
		}
	}
}

func TestConsistentDatabaseAnswersDirectly(t *testing.T) {
	d := parser.MustInstance(`course(21, c15). student(21, "Ann").`)
	set := parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`)
	q := parser.MustQuery(`q(Id) :- course(Id, Code).`)
	for _, opts := range engines() {
		ans, err := session.New(d, set, opts).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if ans.NumRepairs != 1 || len(ans.Tuples) != 1 {
			t.Errorf("engine %v: answer = %+v", opts.Engine, ans)
		}
	}
}

func TestPossibleAnswers(t *testing.T) {
	d, setSrc := example15()
	set := parser.MustConstraints(setSrc)
	q := parser.MustQuery(`q(Id) :- student(Id, Name).`)
	got, err := session.New(d, set, session.NewOptions()).Possible(q)
	if err != nil {
		t.Fatal(err)
	}
	// 21 and 45 certain, 34 possible via the insertion repair.
	if len(got) != 3 {
		t.Errorf("possible answers = %v", got)
	}
}

func TestEnginesAgree(t *testing.T) {
	// Example 19 with a query over both relations.
	d := parser.MustInstance(`
		r(a, b).
		r(a, c).
		s(e, f).
		s(null, a).
	`)
	set := parser.MustConstraints(`
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
		r(X, Y), isnull(X) -> false.
	`)
	queries := []string{
		`q(X) :- r(X, Y).`,
		`q(X, Y) :- r(X, Y).`,
		`q(U) :- s(U, V), r(V, W).`,
		`q :- r(a, b).`,
	}
	for _, qsrc := range queries {
		q := parser.MustQuery(qsrc)
		search, err := session.New(d, set, session.NewOptions()).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []session.Engine{session.EngineProgram, session.EngineProgramCautious} {
			opts := session.NewOptions()
			opts.Engine = engine
			got, err := session.New(d, set, opts).Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if search.Boolean != got.Boolean || len(search.Tuples) != len(got.Tuples) {
				t.Errorf("query %q: %v disagrees with search: %+v vs %+v", qsrc, engine, got, search)
				continue
			}
			for i := range search.Tuples {
				if !search.Tuples[i].Equal(got.Tuples[i]) {
					t.Errorf("query %q via %v: tuple %d differs: %v vs %v",
						qsrc, engine, i, search.Tuples[i], got.Tuples[i])
				}
			}
		}
	}
}

func TestCautiousEngineWithNegationAndUnconstrained(t *testing.T) {
	// A query with negation over a mixed (constrained + unconstrained)
	// schema: the cautious engine must agree with the search engine.
	d := parser.MustInstance(`
		course(21, c15).
		course(34, c18).
		student(21, "Ann").
		flagged(34).
	`)
	set := parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`)
	q := parser.MustQuery(`q(Id) :- course(Id, Code), not flagged(Id).`)
	search, err := session.New(d, set, session.NewOptions()).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := session.NewOptions()
	opts.Engine = session.EngineProgramCautious
	cautious, err := session.New(d, set, opts).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(search.Tuples) != 1 || len(cautious.Tuples) != 1 {
		t.Fatalf("answers: search=%v cautious=%v", search.Tuples, cautious.Tuples)
	}
	if !search.Tuples[0].Equal(cautious.Tuples[0]) {
		t.Errorf("answers differ: %v vs %v", search.Tuples[0], cautious.Tuples[0])
	}
}

func TestPaperVariantOption(t *testing.T) {
	// The paper-faithful program variant is selectable and works on the
	// paper's own examples.
	d := parser.MustInstance(`
		course(21, c15).
		course(34, c18).
		student(21, "Ann").
		student(45, "Paul").
	`)
	set := parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`)
	opts := session.Options{Engine: session.EngineProgram, Variant: repairprog.VariantPaper}
	repairs, err := session.New(d, set, opts).Repairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 2 {
		t.Errorf("paper variant repairs = %d, want 2", len(repairs))
	}
}
