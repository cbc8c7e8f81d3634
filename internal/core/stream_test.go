package core

import (
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/session"
	"repro/internal/value"
)

// violatingCourses builds the Example 15 shape with extra dangling courses,
// so the repair space is 2^(extra+1) and a short-circuit is observable.
func violatingCourses(extra int) (*relational.Instance, string) {
	d := parser.MustInstance(`
		course(21, c15).
		course(34, c18).
		student(21, "Ann").
		student(45, "Paul").
	`)
	for i := 0; i < extra; i++ {
		d.Insert(relational.F("course", value.Int(int64(100+i)), value.Str(fmt.Sprintf("cx%d", i))))
	}
	return d, `course(Id, Code) -> student(Id, Name).`
}

// TestBooleanShortCircuit is the regression test for the tentpole's early
// termination: a boolean certain answer that is refuted by one repair must
// stop the enumeration at the first confirmed-minimal counterexample,
// witnessed by a states-explored counter strictly below the full-enumeration
// count.
func TestBooleanShortCircuit(t *testing.T) {
	d, setSrc := violatingCourses(3)
	set := parser.MustConstraints(setSrc)
	full, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}

	no := parser.MustQuery(`q :- course(34, c18).`)
	ans, err := session.New(d, set, session.NewOptions()).Answer(no)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Boolean {
		t.Fatal("course(34, c18) must not be certain (one repair deletes it)")
	}
	if !ans.ShortCircuited {
		t.Error("refuted boolean answer did not short-circuit")
	}
	if ans.StatesExplored >= full.StatesExplored {
		t.Errorf("short-circuit explored %d states, full enumeration %d — no early termination",
			ans.StatesExplored, full.StatesExplored)
	}

	// A certain yes still requires the full enumeration.
	yes := parser.MustQuery(`q :- course(21, c15).`)
	ans, err = session.New(d, set, session.NewOptions()).Answer(yes)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Boolean || ans.ShortCircuited {
		t.Errorf("certain yes answered %+v, want Boolean=true without short-circuit", ans)
	}
	if ans.StatesExplored != full.StatesExplored || ans.NumRepairs != len(full.Repairs) {
		t.Errorf("certain yes explored %d states / %d repairs, want %d / %d",
			ans.StatesExplored, ans.NumRepairs, full.StatesExplored, len(full.Repairs))
	}
}

// TestAnswersParallelMatchesSequential asserts that two fresh sessions
// stream identical consistent answers (diagnostics included) and possible
// answers across query shapes.
func TestAnswersParallelMatchesSequential(t *testing.T) {
	scenarios := []struct {
		db, ic  string
		queries []string
	}{
		{
			db: `r(a, b). r(a, c). s(e, f). s(null, a).`,
			ic: `
				r(X, Y), r(X, Z) -> Y = Z.
				s(U, V) -> r(V, W).
				r(X, Y), isnull(X) -> false.
			`,
			queries: []string{`q(X) :- r(X, Y).`, `q(U) :- s(U, V), r(V, W).`, `q :- r(a, b).`, `q :- r(a, z).`},
		},
		{
			db: `
				course(21, c15). course(34, c18). course(77, c09).
				student(21, "Ann"). student(45, "Paul").
			`,
			ic:      `course(Id, Code) -> student(Id, Name).`,
			queries: []string{`q(Id) :- student(Id, Name).`, `q(Id, Code) :- course(Id, Code).`, `q :- course(34, c18).`},
		},
	}
	for si, sc := range scenarios {
		d := parser.MustInstance(sc.db)
		set := parser.MustConstraints(sc.ic)
		for _, qsrc := range sc.queries {
			q := parser.MustQuery(qsrc)
			opts := session.NewOptions()
			first, err := session.New(d, set, opts).Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			again, err := session.New(d, set, opts).Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAnswer(first, again, q); err != nil {
				t.Errorf("scenario %d %q: second run disagrees: %v\nfirst: %+v\nagain: %+v", si, qsrc, err, first, again)
			}
			if again.NumRepairs != first.NumRepairs || again.StatesExplored != first.StatesExplored || again.ShortCircuited != first.ShortCircuited {
				t.Errorf("scenario %d %q: diagnostics differ: %+v vs %+v", si, qsrc, first, again)
			}
			firstPoss, err := session.New(d, set, opts).Possible(q)
			if err != nil {
				t.Fatal(err)
			}
			againPoss, err := session.New(d, set, opts).Possible(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(firstPoss) != len(againPoss) {
				t.Fatalf("scenario %d %q: possible answers differ: %v vs %v", si, qsrc, firstPoss, againPoss)
			}
			for i := range firstPoss {
				if !firstPoss[i].Equal(againPoss[i]) {
					t.Errorf("scenario %d %q: possible answer %d differs: %v vs %v", si, qsrc, i, firstPoss[i], againPoss[i])
				}
			}
		}
	}
}

// TestShortCircuitAgreesWithProgramEngine guards the soundness of the
// certificate: whenever the search engine short-circuits a boolean query,
// the program engine (full stable-model pipeline) must agree the certain
// answer is no.
func TestShortCircuitAgreesWithProgramEngine(t *testing.T) {
	d, setSrc := violatingCourses(2)
	set := parser.MustConstraints(setSrc)
	for _, qsrc := range []string{
		`q :- course(34, c18).`,
		`q :- course(100, cx0).`,
		`q :- course(101, cx1).`,
		`q :- student(34, null).`,
	} {
		q := parser.MustQuery(qsrc)
		search, err := session.New(d, set, session.NewOptions()).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		progOpts := session.NewOptions()
		progOpts.Engine = session.EngineProgram
		prog, err := session.New(d, set, progOpts).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if search.Boolean != prog.Boolean {
			t.Errorf("%q: search says %v (short-circuit=%v), program says %v",
				qsrc, search.Boolean, search.ShortCircuited, prog.Boolean)
		}
	}
}
