package core

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/session"
)

func cautiousFixture() (d, setSrc string) {
	return `
		r(a, b).
		r(a, c).
		s(e, f).
		s(null, a).
	`, `
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
		r(X, Y), isnull(X) -> false.
	`
}

var cautiousQueries = []string{
	`q(X) :- r(X, Y).`,
	`q(X, Y) :- r(X, Y).`,
	`q(U) :- s(U, V), r(V, W).`,
	`q(X) :- r(X, Y), not s(Y, X).`,
	`q :- r(a, b).`,
	`q :- r(a, z).`,
}

// TestCautiousManyMatchesSingle pins the shared-session contract: answer i
// of one cautious session answering every query is exactly what a fresh
// cautious session returns for queries[i], while the repair program is
// built and ground only once.
func TestCautiousManyMatchesSingle(t *testing.T) {
	dsrc, setSrc := cautiousFixture()
	d := parser.MustInstance(dsrc)
	set := parser.MustConstraints(setSrc)
	opts := session.NewOptions()
	opts.Engine = session.EngineProgramCautious
	var queries []*query.Q
	for _, qsrc := range cautiousQueries {
		queries = append(queries, parser.MustQuery(qsrc))
	}
	shared := session.New(d, set, opts)
	many := make([]session.Answer, len(queries))
	for i, q := range queries {
		var err error
		if many[i], err = shared.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	if len(many) != len(queries) {
		t.Fatalf("answers = %d, want %d", len(many), len(queries))
	}
	single := session.NewOptions()
	single.Engine = session.EngineProgramCautious
	for i, q := range queries {
		want, err := session.New(d, set, single).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		got := many[i]
		if got.Boolean != want.Boolean || got.NumRepairs != want.NumRepairs ||
			got.ShortCircuited != want.ShortCircuited || len(got.Tuples) != len(want.Tuples) {
			t.Errorf("query %q: shared=%+v, single=%+v", cautiousQueries[i], got, want)
			continue
		}
		for j := range want.Tuples {
			if !got.Tuples[j].Equal(want.Tuples[j]) {
				t.Errorf("query %q tuple %d: %v vs %v", cautiousQueries[i], j, got.Tuples[j], want.Tuples[j])
			}
		}
	}
}
