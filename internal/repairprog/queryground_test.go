package repairprog

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/stable"
	"repro/internal/value"
)

// example19Parsed is the Example 19 scenario in parser-friendly lower-case
// relation names, for tests that drive the query side through the parser.
func example19Parsed() (*relational.Instance, *constraint.Set) {
	return parser.MustInstance(`
			r(a, b).
			r(a, c).
			s(e, f).
			s(null, a).
		`), parser.MustConstraints(`
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
			r(X, Y), isnull(X) -> false.
		`)
}

// queryZoo covers the query-rule shapes GroundWithQuery must handle: open
// and boolean queries, joins, negation, builtins, and disjunction (unions).
var queryZoo = []string{
	`q(X) :- r(X, Y).`,
	`q(X, Y) :- r(X, Y).`,
	`q(U) :- s(U, V), r(V, W).`,
	`q(X) :- r(X, Y), not s(Y, X).`,
	`q(X, Y) :- r(X, Y), X != Y.`,
	`q(X) :- r(X, Y). q(X) :- s(X, V).`,
	`q :- r(a, b).`,
	`q :- s(U, V), not r(V, V).`,
}

// TestGroundWithQueryMatchesMonolithic pins the grounding-reuse contract at
// the translation level: extending the cached base grounding with the query
// rules renders byte-identically to re-grounding WithQuery(q) from scratch,
// for every query shape.
func TestGroundWithQueryMatchesMonolithic(t *testing.T) {
	d, set := example19Parsed()
	tr := mustBuild(t, d, set, VariantCorrected)
	for _, qsrc := range queryZoo {
		q := parser.MustQuery(qsrc)
		got, err := tr.GroundWithQuery(q)
		if err != nil {
			t.Fatalf("query %q: %v", qsrc, err)
		}
		prog, err := tr.WithQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := ground.GroundWith(prog, tr.GroundOptions)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != mono.String() {
			t.Errorf("query %q: extension diverges from monolithic:\n--- monolithic\n%s\n--- extension\n%s",
				qsrc, mono, got)
		}
	}
}

// TestBaseGroundingCached checks that the base grounding is computed once
// per translation and shared by every query extension.
func TestBaseGroundingCached(t *testing.T) {
	d, set := example19Parsed()
	tr := mustBuild(t, d, set, VariantCorrected)
	g1, err := tr.BaseGrounding()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tr.BaseGrounding()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("BaseGrounding re-grounded the base")
	}
	// Query extensions must share the base atom table: ids and names of the
	// base atoms survive unchanged.
	gp, err := tr.GroundWithQuery(parser.MustQuery(`q(X) :- r(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Atoms) < len(g1.Atoms) {
		t.Fatalf("extension lost base atoms: %d < %d", len(gp.Atoms), len(g1.Atoms))
	}
	for id := range g1.Atoms {
		if !gp.Atoms[id].Equal(g1.Atoms[id]) {
			t.Fatalf("atom id %d renamed by extension: %v vs %v", id, gp.Atoms[id], g1.Atoms[id])
		}
	}
}

// TestGroundWithQueryFallback covers the input that once needed a
// monolithic fallback: a database relation named like the answer predicate.
// The translation now names its answer predicate around it, so the
// extension of the base grounding still renders identically to a monolithic
// grounding of WithQuery, and the query's q_ans atom reads the database
// relation.
func TestGroundWithQueryFallback(t *testing.T) {
	d := parser.MustInstance(`
		r(a, b).
		r(a, c).
		q_ans(a).
	`)
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
	tr := mustBuild(t, d, set, VariantCorrected)
	if tr.AnswerPred() == "q_ans" {
		t.Fatalf("answer predicate %q collides with a database relation", tr.AnswerPred())
	}
	q := parser.MustQuery(`q(X) :- r(X, Y), q_ans(X).`)
	got, err := tr.GroundWithQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tr.WithQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := ground.Ground(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != mono.String() {
		t.Errorf("extension diverges from monolithic:\n--- monolithic\n%s\n--- extension\n%s", mono, got)
	}
	if !strings.Contains(got.String(), tr.AnswerPred()+"(a) :- ") {
		t.Errorf("q(a) is not derivable through the database's q_ans(a):\n%s", got)
	}
}

// TestGeneratedNamesAvoidBaseRelations pins the naming rule: generated
// predicates keep their conventional names unless a relation of D or IC
// has one, a query atom naming a generated predicate reads an empty
// relation, and an update bringing in a relation with a generated name
// invalidates the translation instead of being rebased onto it.
func TestGeneratedNamesAvoidBaseRelations(t *testing.T) {
	set := parser.MustConstraints(`s(U, V) -> r(V, W).`)
	plain := mustBuild(t, parser.MustInstance(`s(e, a). r(b, c).`), set, VariantCorrected)
	clash := mustBuild(t, parser.MustInstance(`s(e, a). r(b, c). r_a(x, y, z). aux_ic1(a). q_ans(b).`), set, VariantCorrected)
	if got := plain.Render(); !strings.Contains(got, "aux_ic1(") || !strings.Contains(got, "r_a(") || plain.AnswerPred() != "q_ans" {
		t.Errorf("clash-free program does not use the conventional names:\n%s", got)
	}
	if clash.annOf["r"] == "r_a" || clash.generated["aux_ic1"] || clash.AnswerPred() == "q_ans" {
		t.Errorf("generated names collide with base relations: r → %s, answer %s, generated %v",
			clash.annOf["r"], clash.AnswerPred(), clash.generated)
	}
	for name := range clash.generated {
		if _, base := clash.annOf[name]; base { // unpruned: every base relation is annotated
			t.Errorf("generated name %s is a base relation", name)
		}
	}

	// r_a is a generated name of plain, so the query reads it as empty:
	// the positive disjunct goes, the negated literal holds.
	rules, err := plain.QueryRules(parser.MustQuery(`q(X) :- r_a(X, Y, Z). q(X) :- s(X, Y), not r_a(X, Y, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || len(rules[0].Neg) != 0 || len(rules[0].Pos) != 1 {
		t.Errorf("query rules over a generated name = %v, want the one disjunct without it", rules)
	}

	pruned, err := BuildWith(parser.MustInstance(`s(e, a). r(b, c).`), set, BuildOptions{Variant: VariantCorrected, PruneUnconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.AffectedBy(relational.Delta{Added: []relational.Fact{fact("audit", s("x"))}}) {
		t.Error("an unconstrained relation invalidated the pruned translation")
	}
	if !pruned.AffectedBy(relational.Delta{Added: []relational.Fact{fact("q_ans", s("x"))}}) {
		t.Error("a relation named like the answer predicate was rebased onto the translation")
	}
}

// TestFoldedAnswersStayWithTheirQuery answers two queries that share the
// answer predicate on one translation, in both orders. Each query's
// answers over unconflicted tuples fold into answer facts on its own
// extension of the base grounding; neither query may see the other's.
func TestFoldedAnswersStayWithTheirQuery(t *testing.T) {
	d := parser.MustInstance(`
		r(a, b).
		r(a, c).
		r(d, e).
		r(f, g).
	`)
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
	queries := []struct {
		src    string
		folded string // an answer decided by facts alone
		want   []string
	}{
		{`q(X) :- r(X, Y).`, "d", []string{"(a)", "(d)", "(f)"}},
		{`q(Y) :- r(X, Y).`, "e", []string{"(e)", "(g)"}},
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		tr := mustBuild(t, d, set, VariantCorrected)
		for _, i := range append(order, order[0]) {
			q := queries[i]
			gp, err := tr.GroundWithQuery(parser.MustQuery(q.src))
			if err != nil {
				t.Fatal(err)
			}
			folded := relational.F(tr.AnswerPred(), value.Str(q.folded))
			id := slices.IndexFunc(gp.Atoms, folded.Equal)
			if id < 0 || !slices.Contains(gp.Facts, id) {
				t.Fatalf("order %v, %s: answer (%s) is not a folded fact:\n%s", order, q.src, q.folded, gp)
			}
			ms, err := stable.Models(gp, stable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, a := range stable.Cautious(ms) {
				if f := gp.Atoms[a]; f.Pred == tr.AnswerPred() {
					got = append(got, f.Args.String())
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, q.want) {
				t.Errorf("order %v, %s: certain answers %v, want %v", order, q.src, got, q.want)
			}
		}
	}
}
