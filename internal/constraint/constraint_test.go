package constraint

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/term"
)

func atom(pred string, args ...term.T) term.Atom { return term.NewAtom(pred, args...) }
func v(name string) term.T                       { return term.V(name) }

// Example 1(a): ∀xyzw(P(x,y) ∧ R(y,z,w) → S(x) ∨ z ≠ 2 ∨ w ≤ y).
func example1a() *IC {
	return &IC{
		Name: "ex1a",
		Body: []term.Atom{atom("P", v("x"), v("y")), atom("R", v("y"), v("z"), v("w"))},
		Head: []term.Atom{atom("S", v("x"))},
		Phi: []term.Builtin{
			{Op: term.NEQ, L: v("z"), R: term.CInt(2)},
			{Op: term.LEQ, L: v("w"), R: v("y")},
		},
	}
}

// Example 1(b): ∀xy(P(x,y) → ∃z R(x,y,z)).
func example1b() *IC {
	return &IC{
		Name: "ex1b",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("R", v("x"), v("y"), v("z"))},
	}
}

func TestClassifyExample1(t *testing.T) {
	if got := example1a().Classify(); got != ClassUIC {
		t.Errorf("ex1a class = %v, want universal", got)
	}
	if got := example1b().Classify(); got != ClassRIC {
		t.Errorf("ex1b class = %v, want referential", got)
	}
	// Example 1(c): S(x) → ∃yz(R(x,y) ∨ R(x,y,z)) — after standardization,
	// a general constraint (two head atoms with existentials).
	c := &IC{
		Name: "ex1c",
		Body: []term.Atom{atom("S", v("x"))},
		Head: []term.Atom{atom("R", v("x"), v("y")), atom("R", v("x"), v("y"), v("z"))},
	}
	c.Standardize()
	if err := c.Validate(); err != nil {
		t.Fatalf("standardized ex1c invalid: %v", err)
	}
	if got := c.Classify(); got != ClassGeneral {
		t.Errorf("ex1c class = %v, want general", got)
	}
}

func TestStandardizeRenamesSharedExistentials(t *testing.T) {
	c := &IC{
		Body: []term.Atom{atom("S", v("x"))},
		Head: []term.Atom{atom("R", v("x"), v("y")), atom("R", v("x"), v("y"), v("z"))},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("shared existential variable must fail validation before standardization")
	}
	c.Standardize()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after Standardize: %v", err)
	}
	// First head atom keeps y; second must have a fresh variable.
	if c.Head[0].Args[1].Var != "y" {
		t.Errorf("first atom renamed: %v", c.Head[0])
	}
	if c.Head[1].Args[1].Var == "y" {
		t.Errorf("second atom not renamed: %v", c.Head[1])
	}
	// Repetition within one atom must survive standardization (Example 13).
	rep := &IC{
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("Q", v("x"), v("z"), v("z"))},
	}
	rep.Standardize()
	if rep.Head[0].Args[1].Var != rep.Head[0].Args[2].Var {
		t.Errorf("within-atom repetition broken: %v", rep.Head[0])
	}
}

func TestBodyAndExistVars(t *testing.T) {
	c := example1b()
	if got := c.BodyVars(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("BodyVars = %v", got)
	}
	if got := c.ExistVars(); !reflect.DeepEqual(got, []string{"z"}) {
		t.Errorf("ExistVars = %v", got)
	}
	if got := example1a().ExistVars(); len(got) != 0 {
		t.Errorf("UIC ExistVars = %v", got)
	}
}

func TestDenialAndCheck(t *testing.T) {
	d := &IC{Name: "d", Body: []term.Atom{atom("P", v("x")), atom("Q", v("x"))}}
	if !d.IsDenial() || d.IsCheck() || d.Classify() != ClassUIC {
		t.Errorf("denial misclassified: %v %v %v", d.IsDenial(), d.IsCheck(), d.Classify())
	}
	// Example 6: Emp(ID,Name,Salary) → Salary > 100.
	chk := &IC{
		Name: "salary",
		Body: []term.Atom{atom("Emp", v("id"), v("name"), v("salary"))},
		Phi:  []term.Builtin{{Op: term.GT, L: v("salary"), R: term.CInt(100)}},
	}
	if !chk.IsCheck() || chk.IsDenial() {
		t.Error("check constraint misclassified")
	}
	if got := chk.RelevantAttrs().String(); got != "{Emp[3]}" {
		t.Errorf("check relevant attrs = %s", got)
	}
}

func TestRelevantAttrsExample4(t *testing.T) {
	// ψ1: P(x,y,z) → R(y,z): A = {P[2],P[3],R[1],R[2]}.
	psi1 := &IC{
		Body: []term.Atom{atom("P", v("x"), v("y"), v("z"))},
		Head: []term.Atom{atom("R", v("y"), v("z"))},
	}
	if got := psi1.RelevantAttrs().String(); got != "{P[2], P[3], R[1], R[2]}" {
		t.Errorf("A(ψ1) = %s", got)
	}
	// ψ2: P(x,y,z) → R(x,y): A = {P[1],P[2],R[1],R[2]}.
	psi2 := &IC{
		Body: []term.Atom{atom("P", v("x"), v("y"), v("z"))},
		Head: []term.Atom{atom("R", v("x"), v("y"))},
	}
	if got := psi2.RelevantAttrs().String(); got != "{P[1], P[2], R[1], R[2]}" {
		t.Errorf("A(ψ2) = %s", got)
	}
}

func TestRelevantAttrsExample8(t *testing.T) {
	// Person(x,y,z,w) ∧ Person(z,s,t,u) → u > w+15 simplified to u > w
	// (still: relevant = Name, Mom, Age = Person[1],[3],[4]).
	c := &IC{
		Body: []term.Atom{
			atom("Person", v("x"), v("y"), v("z"), v("w")),
			atom("Person", v("z"), v("s"), v("t"), v("u")),
		},
		Phi: []term.Builtin{{Op: term.GT, L: v("u"), R: v("w")}},
	}
	if got := c.RelevantAttrs().String(); got != "{Person[1], Person[3], Person[4]}" {
		t.Errorf("A(ψ) = %s", got)
	}
}

func TestRelevantAttrsExample10(t *testing.T) {
	// γ: P(x,y,z) ∧ R(z,w) → ∃v R(x,v) ∨ w > 3.
	// A(γ) = {P[1], P[3], R[1], R[2]}.
	g := &IC{
		Body: []term.Atom{atom("P", v("x"), v("y"), v("z")), atom("R", v("z"), v("w"))},
		Head: []term.Atom{atom("R", v("x"), v("v"))},
		Phi:  []term.Builtin{{Op: term.GT, L: v("w"), R: term.CInt(3)}},
	}
	if got := g.RelevantAttrs().String(); got != "{P[1], P[3], R[1], R[2]}" {
		t.Errorf("A(γ) = %s", got)
	}
}

func TestRelevantAttrsExample12(t *testing.T) {
	// ψ: P1(x,y,w) ∧ P2(y,z) → ∃u Q(x,z,u).
	c := &IC{
		Body: []term.Atom{atom("P1", v("x"), v("y"), v("w")), atom("P2", v("y"), v("z"))},
		Head: []term.Atom{atom("Q", v("x"), v("z"), v("u"))},
	}
	if got := c.RelevantAttrs().String(); got != "{P1[1], P1[2], P2[1], P2[2], Q[1], Q[2]}" {
		t.Errorf("A(ψ) = %s", got)
	}
	vars := c.RelevantBodyVars()
	if !reflect.DeepEqual(vars, []string{"x", "y", "z"}) {
		t.Errorf("relevant body vars = %v", vars)
	}
}

func TestRelevantAttrsExample13(t *testing.T) {
	// ψ: P(x,y) → ∃z Q(x,z,z): A = {P[1], Q[1], Q[2], Q[3]}.
	c := &IC{
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("Q", v("x"), v("z"), v("z"))},
	}
	if got := c.RelevantAttrs().String(); got != "{P[1], Q[1], Q[2], Q[3]}" {
		t.Errorf("A(ψ) = %s", got)
	}
}

func TestRelevantAttrsConstants(t *testing.T) {
	// Constants are always relevant (Definition 2, second clause).
	c := &IC{
		Body: []term.Atom{atom("P", v("x"), term.CStr("a"))},
		Head: []term.Atom{atom("P", v("x"), term.CStr("b"))},
	}
	if got := c.RelevantAttrs().String(); got != "{P[1], P[2]}" {
		t.Errorf("A = %s", got)
	}
}

func TestRICParts(t *testing.T) {
	c := example1b() // P(x,y) → ∃z R(x,y,z)
	p, ok := c.RICParts()
	if !ok {
		t.Fatal("RICParts failed on a RIC")
	}
	if !reflect.DeepEqual(p.SharedPos, []int{0, 1}) || !reflect.DeepEqual(p.ExistPos, []int{2}) {
		t.Errorf("parts = %+v", p)
	}
	if _, ok := example1a().RICParts(); ok {
		t.Error("RICParts succeeded on a UIC")
	}
	// Existential variable in first position (Example 18's RIC
	// T(x) → ∃y P(y,x)).
	c2 := &IC{
		Body: []term.Atom{atom("T", v("x"))},
		Head: []term.Atom{atom("P", v("y"), v("x"))},
	}
	p2, _ := c2.RICParts()
	if !reflect.DeepEqual(p2.SharedPos, []int{1}) || !reflect.DeepEqual(p2.ExistPos, []int{0}) {
		t.Errorf("parts = %+v", p2)
	}
}

func TestValidateRejectsBadConstraints(t *testing.T) {
	bad := []*IC{
		{Name: "emptybody", Head: []term.Atom{atom("P", v("x"))}},
		{Name: "nullinbody", Body: []term.Atom{atom("P", term.CNull())}},
		{Name: "nullinhead", Body: []term.Atom{atom("P", v("x"))}, Head: []term.Atom{atom("Q", term.CNull())}},
		{Name: "phivar", Body: []term.Atom{atom("P", v("x"))}, Phi: []term.Builtin{{Op: term.GT, L: v("w"), R: term.CInt(0)}}},
		{Name: "nullphi", Body: []term.Atom{atom("P", v("x"))}, Phi: []term.Builtin{{Op: term.EQ, L: v("x"), R: term.CNull()}}},
	}
	for _, ic := range bad {
		if err := ic.Validate(); err == nil {
			t.Errorf("constraint %q unexpectedly valid", ic.Name)
		}
	}
	if err := example1a().Validate(); err != nil {
		t.Errorf("ex1a invalid: %v", err)
	}
}

func TestNewSetNamesAndValidates(t *testing.T) {
	s, err := NewSet([]*IC{example1a(), {Body: []term.Atom{atom("P", v("x"))}}}, []*NNC{{Pred: "P", Arity: 2, Pos: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.ICs[1].Name != "ic2" || s.NNCs[0].Name != "nnc1" {
		t.Errorf("auto-naming failed: %q %q", s.ICs[1].Name, s.NNCs[0].Name)
	}
	if _, err := NewSet(nil, []*NNC{{Pred: "P", Arity: 2, Pos: 5}}); err == nil {
		t.Error("out-of-range NNC accepted")
	}
}

func TestConflictsExample20(t *testing.T) {
	// RIC P(x) → ∃y Q(x,y) with NNC on Q[2] is conflicting.
	ric := &IC{
		Body: []term.Atom{atom("P", v("x"))},
		Head: []term.Atom{atom("Q", v("x"), v("y"))},
	}
	nnc := &NNC{Pred: "Q", Arity: 2, Pos: 1}
	s := MustSet([]*IC{ric}, []*NNC{nnc})
	if s.NonConflicting() {
		t.Fatal("Example 20 set reported non-conflicting")
	}
	cs := s.Conflicts()
	if len(cs) != 1 || cs[0].Pred != "Q" || cs[0].Pos != 1 {
		t.Errorf("Conflicts = %v", cs)
	}
	if !strings.Contains(cs[0].String(), "Q[2]") {
		t.Errorf("Conflict.String = %q", cs[0].String())
	}

	// NNC on the key position (Example 19) is non-conflicting.
	s2 := MustSet([]*IC{ric}, []*NNC{{Pred: "Q", Arity: 2, Pos: 0}})
	if !s2.NonConflicting() {
		t.Error("NNC on shared position reported conflicting")
	}
}

func TestFDBuilder(t *testing.T) {
	// Example 19: R(x,y), R(x,z) → y = z.
	ics := FD("R", 2, []int{0}, []int{1})
	if len(ics) != 1 {
		t.Fatalf("FD returned %d constraints", len(ics))
	}
	ic := ics[0]
	if err := ic.Validate(); err != nil {
		t.Fatal(err)
	}
	if ic.Classify() != ClassUIC || !ic.IsCheck() {
		t.Errorf("FD shape wrong: %v", ic)
	}
	if len(ic.Body) != 2 || len(ic.Phi) != 1 || ic.Phi[0].Op != term.EQ {
		t.Errorf("FD structure: %v", ic)
	}
	// A functional dependency key->key is vacuous.
	if got := FD("R", 2, []int{0}, []int{0}); len(got) != 0 {
		t.Errorf("vacuous FD returned %v", got)
	}
}

// The foreign-key shape: a partial inclusion dependency, with an
// existential outside the referenced positions.
func TestForeignKeyBuilder(t *testing.T) {
	// Example 19: S(u,v) with S[2] referencing R[1]: S(u,v) → ∃y R(v,y).
	fk := &IC{
		Body: []term.Atom{atom("S", v("X1"), v("X2"))},
		Head: []term.Atom{atom("R", v("X2"), v("Z2"))},
	}
	if err := fk.Validate(); err != nil {
		t.Fatal(err)
	}
	if fk.Classify() != ClassRIC {
		t.Errorf("FK class = %v", fk.Classify())
	}
	p, _ := fk.RICParts()
	if !reflect.DeepEqual(p.SharedPos, []int{0}) || !reflect.DeepEqual(p.ExistPos, []int{1}) {
		t.Errorf("FK parts = %+v", p)
	}
	// Example 5: Course(Code,ID,Term) → ∃w Exp(ID,Code,w).
	fk2 := &IC{
		Body: []term.Atom{atom("Course", v("X1"), v("X2"), v("X3"))},
		Head: []term.Atom{atom("Exp", v("X2"), v("X1"), v("Z3"))},
	}
	if got := fk2.RelevantAttrs().String(); got != "{Course[1], Course[2], Exp[1], Exp[2]}" {
		t.Errorf("A(fk2) = %s", got)
	}
}

// The full inclusion dependency shape: every position of the referenced
// relation is bound, so the constraint is a UIC.
func TestFullInclusionBuilder(t *testing.T) {
	// Example 9: Course(x,y,z) → Employee(y,z) — a UIC.
	ic := &IC{
		Body: []term.Atom{atom("Course", v("X1"), v("X2"), v("X3"))},
		Head: []term.Atom{atom("Employee", v("X2"), v("X3"))},
	}
	if err := ic.Validate(); err != nil {
		t.Fatal(err)
	}
	if ic.Classify() != ClassUIC {
		t.Errorf("class = %v", ic.Classify())
	}
	if got := ic.RelevantAttrs().String(); got != "{Course[2], Course[3], Employee[1], Employee[2]}" {
		t.Errorf("A = %s", got)
	}
}

func TestSetAccessorsAndConstants(t *testing.T) {
	s := MustSet([]*IC{example1a(), example1b()}, nil)
	if len(s.UICs()) != 1 || len(s.RICs()) != 1 {
		t.Errorf("UICs/RICs = %d/%d", len(s.UICs()), len(s.RICs()))
	}
	consts := s.Constants()
	if len(consts) != 1 || consts[0].String() != "2" {
		t.Errorf("Constants = %v", consts)
	}
	preds := s.Preds()
	var names []string
	for _, p := range preds {
		names = append(names, p.String())
	}
	if !reflect.DeepEqual(names, []string{"P/2", "R/3", "S/1"}) {
		t.Errorf("Preds = %v", names)
	}
}

func TestICString(t *testing.T) {
	if got := example1b().String(); got != "P(x,y) -> exists z: R(x,y,z)" {
		t.Errorf("String = %q", got)
	}
	d := &IC{Name: "d", Body: []term.Atom{atom("P", v("x"))}}
	if got := d.String(); got != "P(x) -> false" {
		t.Errorf("denial String = %q", got)
	}
	if got := example1a().String(); got != "P(x,y), R(y,z,w) -> S(x) | z != 2 | w <= y" {
		t.Errorf("String = %q", got)
	}
	n := &NNC{Pred: "R", Arity: 2, Pos: 0}
	if got := n.String(); got != "R(x1,x2), isnull(x1) -> false" {
		t.Errorf("NNC String = %q", got)
	}
}

func TestAttrSetContains(t *testing.T) {
	s := AttrSet{"P": {0, 2}}
	if !s.Contains("P", 0) || !s.Contains("P", 2) || s.Contains("P", 1) || s.Contains("Q", 0) {
		t.Error("Contains broken")
	}
}
