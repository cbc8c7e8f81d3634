package repairprog

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/depgraph"
	"repro/internal/ground"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/stable"
	"repro/internal/term"
	"repro/internal/value"
)

func v(name string) term.T                       { return term.V(name) }
func atom(pred string, args ...term.T) term.Atom { return term.NewAtom(pred, args...) }
func s(x string) value.V                         { return value.Str(x) }
func n() value.V                                 { return value.Null() }
func fact(pred string, args ...value.V) relational.Fact {
	return relational.F(pred, args...)
}
func inst(facts ...relational.Fact) *relational.Instance {
	return relational.NewInstance(facts...)
}

// example19 is the instance and constraint set of Examples 19/21/23.
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

func mustBuild(t *testing.T, d *relational.Instance, set *constraint.Set, variant Variant) *Translation {
	t.Helper()
	tr, err := Build(d, set, variant)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func stableInstances(t *testing.T, tr *Translation) []*relational.Instance {
	t.Helper()
	insts, _, err := tr.StableRepairs(stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func sameInstanceSets(a, b []*relational.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	keys := map[string]bool{}
	for _, x := range a {
		keys[x.Key()] = true
	}
	for _, y := range b {
		if !keys[y.Key()] {
			return false
		}
	}
	return true
}

// --- Example 21: program shape ------------------------------------------------

func TestExample21ProgramShape(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantPaper)
	out := tr.Program.String()

	// Rule 1: the four facts.
	for _, want := range []string{"R(a,b).", "R(a,c).", "S(e,f).", "S(null,a)."} {
		if !strings.Contains(out, want) {
			t.Errorf("missing fact %q:\n%s", want, out)
		}
	}
	// Rule 2 for the FD (the paper prints only x != null; Definition 9
	// also guards the ϕ-variables y and z, which are relevant).
	if !strings.Contains(out, "R_a(X1,X2,fa) v R_a(X1,Y2,fa) :- R_a(X1,X2,ts), R_a(X1,Y2,ts)") {
		t.Errorf("missing FD rule:\n%s", out)
	}
	if !strings.Contains(out, "X2 != Y2") { // ϕ̄: negation of the FD's x2 = y2
		t.Errorf("missing negated ϕ:\n%s", out)
	}
	// Rule 3 for the RIC with its aux rule.
	if !strings.Contains(out, "S_a(X1,X2,fa) v R_a(X2,null,ta) :- S_a(X1,X2,ts), not aux_fk_S_R(X2), X2 != null.") {
		t.Errorf("missing RIC rule:\n%s", out)
	}
	if !strings.Contains(out, "aux_fk_S_R(X2) :- R_a(X2,Z2,ts), not R_a(X2,Z2,fa), X2 != null, Z2 != null.") {
		t.Errorf("missing aux rule:\n%s", out)
	}
	// Rule 4 for the NNC.
	if !strings.Contains(out, "R_a(x1,x2,fa) :- R_a(x1,x2,ts), x1 = null.") {
		t.Errorf("missing NNC rule:\n%s", out)
	}
	// Rules 5–7.
	for _, want := range []string{
		"R_a(x1,x2,ts) :- R(x1,x2).",
		"R_a(x1,x2,ts) :- R_a(x1,x2,ta).",
		"R_a(x1,x2,tss) :- R_a(x1,x2,ts), not R_a(x1,x2,fa).",
		":- R_a(x1,x2,ta), R_a(x1,x2,fa).",
		"S_a(x1,x2,ts) :- S(x1,x2).",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing rule %q:\n%s", want, out)
		}
	}
}

// --- Example 22: Q'/Q'' combinations -------------------------------------------

func TestExample22QSplitRules(t *testing.T) {
	d := inst(fact("P", s("a"), s("b")), fact("P", s("c"), n()))
	uic := &constraint.IC{
		Name: "u",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("R", v("x")), atom("S", v("y"))},
	}
	nnc := &constraint.NNC{Name: "pnn", Pred: "P", Arity: 2, Pos: 1}
	set := constraint.MustSet([]*constraint.IC{uic}, []*constraint.NNC{nnc})
	tr := mustBuild(t, d, set, VariantPaper)

	// 2^2 = 4 split rules, all with the same head.
	count := 0
	for _, r := range tr.Program.Rules {
		if len(r.Head) == 3 {
			count++
			if r.Head[0].Pred != "P_a" || r.Head[1].Pred != "R_a" || r.Head[2].Pred != "S_a" {
				t.Errorf("unexpected head: %v", r)
			}
		}
	}
	if count != 4 {
		t.Errorf("Q'/Q'' split rules = %d, want 4", count)
	}
	out := tr.Program.String()
	// The all-Q'' split uses base-predicate negation.
	if !strings.Contains(out, "not R(x), not S(y), x != null, y != null") {
		t.Errorf("missing all-Q'' rule:\n%s", out)
	}
	// The NNC rule on the existentially... on P's second attribute.
	if !strings.Contains(out, "P_a(x1,x2,fa) :- P_a(x1,x2,ts), x2 = null.") {
		t.Errorf("missing NNC rule:\n%s", out)
	}
}

// --- Example 23: stable models are the repairs ---------------------------------

func TestExample23StableModels(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantPaper)
	insts, models, err := tr.StableRepairs(stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 4 {
		t.Fatalf("stable models = %d, want 4", len(models))
	}
	d1 := inst(fact("S", s("e"), s("f")), fact("S", n(), s("a")), fact("R", s("a"), s("b")), fact("R", s("f"), n()))
	d2 := inst(fact("S", s("e"), s("f")), fact("S", n(), s("a")), fact("R", s("a"), s("c")), fact("R", s("f"), n()))
	d3 := inst(fact("S", n(), s("a")), fact("R", s("a"), s("b")))
	d4 := inst(fact("S", n(), s("a")), fact("R", s("a"), s("c")))
	if !sameInstanceSets(insts, []*relational.Instance{d1, d2, d3, d4}) {
		t.Errorf("stable repairs = %v", insts)
	}
}

func TestExample23AgainstSearch(t *testing.T) {
	d, set := example19()
	for _, variant := range []Variant{VariantPaper, VariantCorrected} {
		tr := mustBuild(t, d, set, variant)
		insts := stableInstances(t, tr)
		res, err := repair.Repairs(d, set, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameInstanceSets(insts, res.Repairs) {
			t.Errorf("variant %v: stable repairs %v != search repairs %v", variant, insts, res.Repairs)
		}
	}
}

// --- The Definition 9 wrinkle ---------------------------------------------------

func TestDefinition9WrinkleNullWitness(t *testing.T) {
	// D = {P(a), Q(a,null)} with P(x) → ∃y Q(x,y) is consistent
	// (Definition 4), so its only repair is D itself. The verbatim
	// Definition 9 program admits a spurious second stable model that
	// deletes P(a); the corrected variant does not.
	d := inst(fact("P", s("a")), fact("Q", s("a"), n()))
	ric := &constraint.IC{
		Name: "ric",
		Body: []term.Atom{atom("P", v("x"))},
		Head: []term.Atom{atom("Q", v("x"), v("y"))},
	}
	set := constraint.MustSet([]*constraint.IC{ric}, nil)

	res, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Repairs) != 1 || res.Repairs[0].Key() != d.Key() {
		t.Fatalf("search repairs = %v, want {D}", res.Repairs)
	}

	paper := stableInstances(t, mustBuild(t, d, set, VariantPaper))
	if len(paper) != 2 {
		t.Errorf("paper variant instances = %v, expected the documented spurious model", paper)
	}
	corrected := stableInstances(t, mustBuild(t, d, set, VariantCorrected))
	if !sameInstanceSets(corrected, res.Repairs) {
		t.Errorf("corrected variant = %v, want {D}", corrected)
	}
}

// --- Theorem 4: stable models ↔ repairs -----------------------------------------

func theorem4Scenarios() []struct {
	name string
	d    *relational.Instance
	set  *constraint.Set
} {
	ric := func(name string) *constraint.IC {
		return &constraint.IC{
			Name: name,
			Body: []term.Atom{atom("Course", v("id"), v("code"))},
			Head: []term.Atom{atom("Student", v("id"), v("nm"))},
		}
	}
	ex16psi1 := &constraint.IC{
		Name: "psi1",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("Q", v("x"), v("z"))},
	}
	ex16psi2 := &constraint.IC{
		Name: "psi2",
		Body: []term.Atom{atom("Q", v("x"), v("y"))},
		Phi:  []term.Builtin{{Op: term.NEQ, L: v("y"), R: term.CStr("b")}},
	}
	ex17ric := &constraint.IC{
		Name: "ric",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("R", v("x"), v("z"))},
	}
	return []struct {
		name string
		d    *relational.Instance
		set  *constraint.Set
	}{
		{
			name: "example15",
			d: inst(fact("Course", value.Int(21), s("C15")), fact("Course", value.Int(34), s("C18")),
				fact("Student", value.Int(21), s("Ann")), fact("Student", value.Int(45), s("Paul"))),
			set: constraint.MustSet([]*constraint.IC{ric("fk")}, nil),
		},
		{
			name: "example16",
			d:    inst(fact("Q", s("a"), s("b")), fact("P", s("a"), s("c"))),
			set:  constraint.MustSet([]*constraint.IC{ex16psi1, ex16psi2}, nil),
		},
		{
			name: "example17",
			d:    inst(fact("P", s("a"), n()), fact("P", s("b"), s("c")), fact("R", s("a"), s("b"))),
			set:  constraint.MustSet([]*constraint.IC{ex17ric}, nil),
		},
	}
}

func TestTheorem4OnScenarios(t *testing.T) {
	for _, sc := range theorem4Scenarios() {
		if !depgraph.RICAcyclic(sc.set) {
			t.Fatalf("%s: scenario must be RIC-acyclic", sc.name)
		}
		res, err := repair.Repairs(sc.d, sc.set, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		insts := stableInstances(t, mustBuild(t, sc.d, sc.set, VariantCorrected))
		if !sameInstanceSets(insts, res.Repairs) {
			t.Errorf("%s: stable %v != search %v", sc.name, insts, res.Repairs)
		}
	}
}

func TestTheorem4Randomized(t *testing.T) {
	// Random instances over a RIC-acyclic set with an FD, a RIC and an
	// NNC: the corrected program's stable models must induce exactly the
	// search repairs.
	fd := constraint.FD("R", 2, []int{0}, []int{1})
	fk := &constraint.IC{Name: "fk_S_R", Body: []term.Atom{atom("S", v("X1"), v("X2"))}, Head: []term.Atom{atom("R", v("X2"), v("Z2"))}}
	nnc := &constraint.NNC{Name: "rkey", Pred: "R", Arity: 2, Pos: 0}
	set := constraint.MustSet(append(fd, fk), []*constraint.NNC{nnc})
	if !depgraph.RICAcyclic(set) {
		t.Fatal("set must be RIC-acyclic")
	}
	vals := []value.V{s("a"), s("b"), n()}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		d := relational.NewInstance()
		for k := 0; k < 1+rng.Intn(3); k++ {
			d.Insert(fact("R", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		for k := 0; k < rng.Intn(3); k++ {
			d.Insert(fact("S", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		res, err := repair.Repairs(d, set, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Build(d, set, VariantCorrected)
		if err != nil {
			t.Fatal(err)
		}
		insts, _, err := tr.StableRepairs(stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameInstanceSets(insts, res.Repairs) {
			t.Fatalf("trial %d (D=%v): stable %v != search %v", trial, d, insts, res.Repairs)
		}
	}
}

func TestCyclicRICExample18(t *testing.T) {
	// Example 18's set is RIC-cyclic, outside Theorem 4's guarantee; we
	// record the observed behaviour of the corrected program here.
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
	set := constraint.MustSet([]*constraint.IC{uic, ric}, nil)
	if depgraph.RICAcyclic(set) {
		t.Fatal("Example 18 must be RIC-cyclic")
	}
	res, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	insts := stableInstances(t, mustBuild(t, d, set, VariantCorrected))
	// Every stable-model instance must at least be a repair (soundness
	// direction); completeness is only guaranteed for acyclic sets.
	repairKeys := map[string]bool{}
	for _, r := range res.Repairs {
		repairKeys[r.Key()] = true
	}
	for _, i := range insts {
		if !repairKeys[i.Key()] {
			t.Errorf("stable instance %v is not a repair (repairs: %v)", i, res.Repairs)
		}
	}
	if len(insts) == 0 {
		t.Error("cyclic program yielded no stable models")
	}
}

// --- Theorem 5 / Example 24 -----------------------------------------------------

func TestExample24Bilateral(t *testing.T) {
	// IC = {T(x) → ∃y R(x,y), S(x,y) → T(x)}: bilateral = {T}.
	ic1 := &constraint.IC{
		Name: "ic1",
		Body: []term.Atom{atom("T", v("x"))},
		Head: []term.Atom{atom("R", v("x"), v("y"))},
	}
	ic2 := &constraint.IC{
		Name: "ic2",
		Body: []term.Atom{atom("S", v("x"), v("y"))},
		Head: []term.Atom{atom("T", v("x"))},
	}
	set := constraint.MustSet([]*constraint.IC{ic1, ic2}, nil)
	bp := BilateralPreds(set)
	if len(bp) != 1 || bp[0] != "T" {
		t.Errorf("bilateral = %v, want [T]", bp)
	}
	if !GuaranteedHCF(set) {
		t.Error("Example 24 satisfies Theorem 5's condition")
	}
	// The generated program must indeed be HCF.
	d := inst(fact("T", s("a")), fact("S", s("a"), s("b")))
	tr := mustBuild(t, d, set, VariantPaper)
	gp, err := ground.Ground(tr.Program)
	if err != nil {
		t.Fatal(err)
	}
	if !stable.IsHCF(gp) {
		t.Error("program for Example 24 must be HCF")
	}
}

func TestTheorem5SufficientNotNecessary(t *testing.T) {
	// P(x,y) → P(y,x): two occurrences of the bilateral predicate P;
	// condition fails and the program is genuinely not HCF.
	sym := &constraint.IC{
		Name: "sym",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("P", v("y"), v("x"))},
	}
	set1 := constraint.MustSet([]*constraint.IC{sym}, nil)
	if GuaranteedHCF(set1) {
		t.Error("P(x,y) → P(y,x) must fail Theorem 5's condition")
	}
	d1 := inst(fact("P", s("a"), s("b")))
	tr1 := mustBuild(t, d1, set1, VariantPaper)
	gp1, err := ground.Ground(tr1.Program)
	if err != nil {
		t.Fatal(err)
	}
	if stable.IsHCF(gp1) {
		t.Error("program for P(x,y) → P(y,x) should not be HCF")
	}

	// P(x,a) → P(x,b): condition also fails, but the ground program is
	// HCF — the condition is sufficient, not necessary.
	shift := &constraint.IC{
		Name: "shift",
		Body: []term.Atom{atom("P", v("x"), term.CStr("a"))},
		Head: []term.Atom{atom("P", v("x"), term.CStr("b"))},
	}
	set2 := constraint.MustSet([]*constraint.IC{shift}, nil)
	if GuaranteedHCF(set2) {
		t.Error("P(x,a) → P(x,b) must fail the syntactic condition")
	}
	d2 := inst(fact("P", s("q"), s("a")))
	tr2 := mustBuild(t, d2, set2, VariantPaper)
	gp2, err := ground.Ground(tr2.Program)
	if err != nil {
		t.Fatal(err)
	}
	if !stable.IsHCF(gp2) {
		t.Error("program for P(x,a) → P(x,b) must be HCF")
	}
}

func TestDenialOnlySetsAreHCF(t *testing.T) {
	// Corollary 1: denial-constraint programs are HCF.
	den := &constraint.IC{Name: "d", Body: []term.Atom{atom("P", v("x")), atom("Q", v("x"))}}
	set := constraint.MustSet([]*constraint.IC{den}, nil)
	if !GuaranteedHCF(set) {
		t.Error("denial sets have no bilateral predicates")
	}
	d := inst(fact("P", s("a")), fact("Q", s("a")))
	tr := mustBuild(t, d, set, VariantPaper)
	gp, err := ground.Ground(tr.Program)
	if err != nil {
		t.Fatal(err)
	}
	if !stable.IsHCF(gp) {
		t.Error("denial program must be HCF")
	}
	// And the shift preserves its stable models.
	ms, err := stable.Models(gp, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sms, err := stable.Models(stable.Shift(gp), stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(sms) {
		t.Errorf("shift changed model count: %d vs %d", len(ms), len(sms))
	}
}

// --- Misc -----------------------------------------------------------------------

func TestBuildRejectsConflictingAndGeneral(t *testing.T) {
	ric := &constraint.IC{
		Name: "ric",
		Body: []term.Atom{atom("P", v("x"))},
		Head: []term.Atom{atom("Q", v("x"), v("y"))},
	}
	conflicting := constraint.MustSet([]*constraint.IC{ric},
		[]*constraint.NNC{{Pred: "Q", Arity: 2, Pos: 1}})
	if _, err := Build(inst(), conflicting, VariantPaper); err == nil {
		t.Error("conflicting set accepted")
	}

	general := &constraint.IC{
		Name: "gen",
		Body: []term.Atom{atom("P", v("x")), atom("S", v("x"))},
		Head: []term.Atom{atom("Q", v("x"), v("y"))},
	}
	set := constraint.MustSet([]*constraint.IC{general}, nil)
	if _, err := Build(inst(), set, VariantPaper); err == nil {
		t.Error("general existential constraint accepted")
	}
}

func TestInterpretIgnoresBaseAtoms(t *testing.T) {
	d := inst(fact("P", s("tss"))) // a value that looks like an annotation
	set := constraint.MustSet([]*constraint.IC{
		{Name: "u", Body: []term.Atom{atom("P", v("x"))}, Head: []term.Atom{atom("Q", v("x"))}},
	}, nil)
	tr := mustBuild(t, d, set, VariantPaper)
	insts := stableInstances(t, tr)
	for _, i := range insts {
		for _, f := range i.Facts() {
			if strings.HasSuffix(f.Pred, AnnSuffix) {
				t.Errorf("annotated predicate leaked into instance: %v", f)
			}
		}
	}
}

func TestRenderAndDLV(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantCorrected)
	if !strings.Contains(tr.Render(), "variant=corrected") {
		t.Error("Render missing variant")
	}
	dlv := tr.Program.DLV()
	if !strings.Contains(dlv, "r_a(") && !strings.Contains(dlv, `"R_a"(`) {
		t.Errorf("DLV export looks wrong:\n%s", dlv)
	}
}
