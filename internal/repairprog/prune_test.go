package repairprog

import (
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/stable"
	"repro/internal/term"
	"repro/internal/value"
)

func i(x int64) value.V { return value.Int(x) }

func mustQuery(t *testing.T, src string) *query.Q {
	t.Helper()
	q, err := parser.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPruneUnconstrained(t *testing.T) {
	d := inst(
		fact("r", s("a"), s("b")),
		fact("r", s("a"), s("c")),
		fact("s", s("e"), s("f")),
		fact("audit", s("x"), i(1)),
		fact("audit", s("y"), i(2)),
	)
	fd := constraint.FD("r", 2, []int{0}, []int{1})
	fk := &constraint.IC{Name: "fk_s_r", Body: []term.Atom{atom("s", v("X1"), v("X2"))}, Head: []term.Atom{atom("r", v("X2"), v("Z2"))}}
	set := constraint.MustSet(append(fd, fk), nil)

	full, err := Build(d, set, VariantCorrected)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildWith(d, set, BuildOptions{Variant: VariantCorrected, PruneUnconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Program.Rules) >= len(full.Program.Rules) {
		t.Errorf("pruning did not shrink the program: %d vs %d rules",
			len(pruned.Program.Rules), len(full.Program.Rules))
	}
	if strings.Contains(pruned.Program.String(), "audit_a(") {
		t.Error("pruned program still annotates the unconstrained predicate")
	}

	fullInsts, _, err := full.StableRepairs(stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prunedInsts, _, err := pruned.StableRepairs(stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fullInsts) != len(prunedInsts) {
		t.Fatalf("pruning changed the repairs: %d vs %d", len(fullInsts), len(prunedInsts))
	}
	keys := map[string]bool{}
	for _, r := range fullInsts {
		keys[r.Key()] = true
	}
	for _, r := range prunedInsts {
		if !keys[r.Key()] {
			t.Errorf("pruned repair %v missing from the full program's repairs", r)
		}
		// The audit relation must survive verbatim.
		if len(r.Relation("audit", 2)) != 2 {
			t.Errorf("repair %v lost audit facts", r)
		}
	}

	fullGP, err := ground.Ground(full.Program)
	if err != nil {
		t.Fatal(err)
	}
	prunedGP, err := ground.Ground(pruned.Program)
	if err != nil {
		t.Fatal(err)
	}
	if prunedGP.NumAtoms() >= fullGP.NumAtoms() {
		t.Errorf("pruning did not shrink the ground program: %d vs %d atoms",
			prunedGP.NumAtoms(), fullGP.NumAtoms())
	}
}

func TestPruneWithoutUnconstrainedPredsIsIdentity(t *testing.T) {
	d, set := example19()
	full, err := Build(d, set, VariantPaper)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildWith(d, set, BuildOptions{Variant: VariantPaper, PruneUnconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Program.String() != pruned.Program.String() {
		t.Error("pruning changed a program with no unconstrained predicates")
	}
}

func TestQueryRules(t *testing.T) {
	d := inst(fact("r", s("a"), s("b")), fact("audit", s("x"), i(1)))
	set := constraint.MustSet(constraint.FD("r", 2, []int{0}, []int{1}), nil)
	tr, err := BuildWith(d, set, BuildOptions{Variant: VariantCorrected, PruneUnconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `q(X) :- r(X, Y), not audit(X, Y), Y != b.`)
	rules, err := tr.QueryRules(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("rules = %v", rules)
	}
	r := rules[0]
	if r.Head[0].Pred != tr.AnswerPred() || tr.AnswerPred() != "q_ans" {
		t.Errorf("head = %v", r.Head)
	}
	// Constrained predicate r goes through the t** annotation;
	// unconstrained audit stays a base atom.
	if r.Pos[0].Pred != "r"+AnnSuffix {
		t.Errorf("positive literal = %v, want annotated", r.Pos[0])
	}
	if r.Pos[0].Args[len(r.Pos[0].Args)-1] != term.C(TSS) {
		t.Errorf("annotation = %v, want tss", r.Pos[0])
	}
	if r.Neg[0].Pred != "audit" {
		t.Errorf("negated literal = %v, want base predicate", r.Neg[0])
	}
	if len(r.Builtins) != 1 {
		t.Errorf("builtins = %v", r.Builtins)
	}
}

func TestWithQueryBuildsValidProgram(t *testing.T) {
	d, set := example19()
	tr, err := Build(d, set, VariantCorrected)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `q(V) :- s(U, V).`)
	prog, err := tr.WithQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != len(tr.Program.Rules)+1 {
		t.Errorf("rules = %d, want %d", len(prog.Rules), len(tr.Program.Rules)+1)
	}
	// Unsafe query rules are rejected.
	bad := &query.Q{Name: "q", Head: []string{"X"},
		Disjuncts: []query.Conj{{Lits: []query.Literal{{Atom: term.NewAtom("r", term.V("X"), term.V("Y")), Neg: true}}}}}
	if _, err := tr.QueryRules(bad); err == nil {
		t.Error("unsafe query accepted")
	}
}
