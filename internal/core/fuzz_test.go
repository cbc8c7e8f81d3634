package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/value"
)

// TestDifferentialEngines cross-validates the three CQA engines on
// randomized instances, constraint sets and queries. Any disagreement is a
// bug in one of three independently implemented pipelines (search +
// per-repair evaluation, stable models + per-repair evaluation, cautious
// reasoning over the combined program), so this is the strongest single
// correctness check in the suite.
func TestDifferentialEngines(t *testing.T) {
	sets := []*constraint.Set{
		parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`),
		parser.MustConstraints(`
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
		`),
		parser.MustConstraints(`
			p(X) -> q(X) | t(X).
			q(X), t(X) -> false.
		`),
		parser.MustConstraints(`
			r(X, Y), isnull(X) -> false.
			s(U, V) -> r(V, W).
		`),
	}
	queries := [][]string{
		{`q(Id) :- student(Id, Name).`, `q(Id, Code) :- course(Id, Code).`, `q :- course(21, c15).`},
		{`q(V) :- s(U, V).`, `q(X, Y) :- r(X, Y).`, `q(U) :- s(U, V), r(V, W).`},
		{`q(X) :- p(X), not t(X).`, `q(X) :- q(X).`, `q :- t(a).`},
		{`q(X) :- r(X, Y).`, `q(V) :- s(U, V), not r(V, V).`},
	}
	rng := rand.New(rand.NewSource(2026))
	vals := []value.V{value.Str("a"), value.Str("b"), value.Null(), value.Int(21)}
	pick := func() value.V { return vals[rng.Intn(len(vals))] }

	gen := func(si int) *relational.Instance {
		d := relational.NewInstance()
		switch si {
		case 0:
			d.Insert(relational.F("course", value.Int(21), value.Str("c15")))
			for k := 0; k < rng.Intn(3); k++ {
				d.Insert(relational.F("course", pick(), pick()))
			}
			for k := 0; k < rng.Intn(3); k++ {
				d.Insert(relational.F("student", pick(), pick()))
			}
		case 1, 3:
			for k := 0; k < 1+rng.Intn(3); k++ {
				d.Insert(relational.F("r", pick(), pick()))
			}
			for k := 0; k < rng.Intn(3); k++ {
				d.Insert(relational.F("s", pick(), pick()))
			}
		case 2:
			for k := 0; k < 1+rng.Intn(3); k++ {
				d.Insert(relational.F("p", pick()))
			}
			for k := 0; k < rng.Intn(2); k++ {
				d.Insert(relational.F("q", pick()))
			}
			for k := 0; k < rng.Intn(2); k++ {
				d.Insert(relational.F("t", pick()))
			}
		}
		return d
	}

	// Inputs naming the repair program's generated predicates: an
	// instance relation called like the answer predicate, an aux
	// predicate or an annotated predicate, and a query reading an
	// annotated predicate. Each is an ordinary (or empty) relation to the
	// search engine, so the program engines must read it the same way.
	clashes := []struct{ db, ics, q string }{
		{`q_ans(z). r(a, b). r(a, c). r(d, e).`, `r(X, Y), r(X, Z) -> Y = Z.`, `q(X) :- r(X, Y).`},
		{`aux_ic1(a). s(e, a). r(b, c).`, `s(U, V) -> r(V, W).`, `q(U) :- s(U, V).`},
		{`r(a, b). r(a, c). r_a(a, c, fa).`, `r(X, Y), r(X, Z) -> Y = Z.`, `q(X, Y) :- r(X, Y).`},
		{`r(a, b). r(a, c). r(d, e).`, `r(X, Y), r(X, Z) -> Y = Z.`, `q(X, Y, T) :- r_a(X, Y, T).`},
	}
	for _, c := range clashes {
		d, set, q := parser.MustInstance(c.db), parser.MustConstraints(c.ics), parser.MustQuery(c.q)
		base, err := session.New(d, set, session.NewOptions()).Answer(q)
		if err != nil {
			t.Fatalf("search engine failed on D=%v, q=%q: %v", d, c.q, err)
		}
		for _, engine := range []session.Engine{session.EngineProgram, session.EngineProgramCautious} {
			opts := session.NewOptions()
			opts.Engine = engine
			got, err := session.New(d, set, opts).Answer(q)
			if err != nil {
				t.Fatalf("%v failed on D=%v, q=%q: %v", engine, d, c.q, err)
			}
			if err := sameAnswer(base, got, q); err != nil {
				t.Errorf("engines disagree on D=%v, q=%q: %v\nsearch: %+v\n%v: %+v", d, c.q, err, base, engine, got)
			}
		}
	}

	trials := 0
	for round := 0; round < 15; round++ {
		for si, set := range sets {
			d := gen(si)
			for _, qsrc := range queries[si] {
				q := parser.MustQuery(qsrc)
				trials++
				base, err := session.New(d, set, session.NewOptions()).Answer(q)
				if err != nil {
					t.Fatalf("search engine failed on D=%v, IC set %d, q=%q: %v", d, si, qsrc, err)
				}
				for _, engine := range []session.Engine{session.EngineProgram, session.EngineProgramCautious} {
					opts := session.NewOptions()
					opts.Engine = engine
					got, err := session.New(d, set, opts).Answer(q)
					if err != nil {
						t.Fatalf("%v failed on D=%v, IC set %d, q=%q: %v", engine, d, si, qsrc, err)
					}
					if err := sameAnswer(base, got, q); err != nil {
						t.Fatalf("engines disagree on D=%v, IC set %d, q=%q: %v\nsearch: %+v\n%v: %+v",
							d, si, qsrc, err, base, engine, got)
					}
				}
			}
		}
	}
	if trials < 100 {
		t.Fatalf("only %d differential trials executed", trials)
	}
}

func sameAnswer(a, b session.Answer, q *query.Q) error {
	if q.IsBoolean() {
		if a.Boolean != b.Boolean {
			return fmt.Errorf("boolean answers differ: %v vs %v", a.Boolean, b.Boolean)
		}
		return nil
	}
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Errorf("answer counts differ: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return fmt.Errorf("tuple %d differs: %v vs %v", i, a.Tuples[i], b.Tuples[i])
		}
	}
	if a.NumRepairs != b.NumRepairs {
		return fmt.Errorf("repair counts differ: %d vs %d", a.NumRepairs, b.NumRepairs)
	}
	return nil
}
