package term

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestTermBasics(t *testing.T) {
	x := V("x")
	if !x.IsVar() || x.String() != "x" {
		t.Errorf("V(x) broken: %v", x)
	}
	c := CInt(5)
	if c.IsVar() || c.String() != "5" {
		t.Errorf("CInt(5) broken: %v", c)
	}
	if CNull().String() != "null" {
		t.Errorf("CNull String = %q", CNull().String())
	}
	if CStr("a") != CStr("a") || CStr("a") == CStr("b") {
		t.Error("constant equality broken")
	}
	if V("x") == CStr("x") {
		t.Error("variable x must differ from constant x")
	}
	if CNull() != CNull() {
		t.Error("null terms must be equal")
	}
}

func TestAtomString(t *testing.T) {
	a := NewAtom("P", V("x"), CStr("b"), CNull())
	if got := a.String(); got != "P(x,b,null)" {
		t.Errorf("String = %q", got)
	}
	if got := NewAtom("False").String(); got != "False" {
		t.Errorf("0-ary String = %q", got)
	}
}

func TestAtomGroundAndVars(t *testing.T) {
	a := NewAtom("P", V("x"), CStr("b"), V("y"), V("x"))
	if a.IsGround() {
		t.Error("atom with vars reported ground")
	}
	vars := a.Vars(nil)
	want := []string{"x", "y", "x"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("Vars[%d] = %q, want %q", i, vars[i], want[i])
		}
	}
	g := NewAtom("P", CStr("a"), CNull())
	if !g.IsGround() {
		t.Error("ground atom reported non-ground")
	}
}

func TestAtomCloneIndependent(t *testing.T) {
	a := NewAtom("P", V("x"), CStr("b"))
	b := a.Clone()
	b.Args[0] = CStr("z")
	if !a.Args[0].IsVar() {
		t.Error("Clone shares argument storage")
	}
	if !reflect.DeepEqual(a, NewAtom("P", V("x"), CStr("b"))) {
		t.Error("original mutated")
	}
}

func TestCompOpNegate(t *testing.T) {
	ops := []CompOp{EQ, NEQ, LT, LEQ, GT, GEQ}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %v = %v", op, op.Negate().Negate())
		}
	}
	// Negation must complement the relation on every comparable pair.
	vals := []value.V{value.Int(1), value.Int(2), value.Int(3)}
	for _, op := range ops {
		for _, l := range vals {
			for _, r := range vals {
				if op.EvalGround(l, r) == op.Negate().EvalGround(l, r) {
					t.Errorf("%v and its negation agree on (%v,%v)", op, l, r)
				}
			}
		}
	}
}

func TestEvalGroundNullAsConstant(t *testing.T) {
	n := value.Null()
	if !EQ.EvalGround(n, n) {
		t.Error("null = null must hold in ordinary-constant mode")
	}
	if NEQ.EvalGround(n, n) {
		t.Error("null != null must fail in ordinary-constant mode")
	}
	if !NEQ.EvalGround(n, value.Int(3)) {
		t.Error("null != 3 must hold")
	}
	// Order comparisons involving null are false either way.
	if LT.EvalGround(n, value.Int(3)) || GT.EvalGround(n, value.Int(3)) {
		t.Error("order comparison with null must be false")
	}
	if LEQ.EvalGround(value.Str("a"), value.Int(3)) {
		t.Error("cross-kind order comparison must be false")
	}
}

func TestEvalGround3(t *testing.T) {
	n := value.Null()
	if got := EQ.EvalGround3(n, n); got != value.Unknown3 {
		t.Errorf("null = null (3VL) = %v, want unknown", got)
	}
	if got := GT.EvalGround3(value.Int(5), n); got != value.Unknown3 {
		t.Errorf("5 > null (3VL) = %v, want unknown", got)
	}
	if got := GT.EvalGround3(value.Int(5), value.Int(3)); got != value.True3 {
		t.Errorf("5 > 3 (3VL) = %v", got)
	}
	if got := LT.EvalGround3(value.Int(5), value.Int(3)); got != value.False3 {
		t.Errorf("5 < 3 (3VL) = %v", got)
	}
}

func TestBuiltinEval(t *testing.T) {
	s := Subst{"x": value.Int(3), "y": value.Int(8)}
	b := Builtin{Op: LT, L: V("x"), R: V("y")}
	if res, ok := b.Eval(s); !ok || !res {
		t.Errorf("3 < 8 under subst = %v,%v", res, ok)
	}
	b2 := Builtin{Op: GT, L: V("x"), R: V("z")}
	if _, ok := b2.Eval(s); ok {
		t.Error("unbound variable must report ok=false")
	}
	b3 := Builtin{Op: EQ, L: V("x"), R: CInt(3)}
	if res, ok := b3.Eval(s); !ok || !res {
		t.Errorf("x = 3 under subst = %v,%v", res, ok)
	}
}

func TestBuiltinNegateString(t *testing.T) {
	b := Builtin{Op: LEQ, L: V("w"), R: V("y")}
	if got := b.String(); got != "w <= y" {
		t.Errorf("String = %q", got)
	}
	if got := b.Negate().String(); got != "w > y" {
		t.Errorf("Negate String = %q", got)
	}
}

func TestSubstApplyAndClone(t *testing.T) {
	s := Subst{"x": value.Str("a")}
	if v, ok := s.Apply(V("x")); !ok || !v.Eq(value.Str("a")) {
		t.Error("Apply variable failed")
	}
	if v, ok := s.Apply(CInt(9)); !ok || !v.Eq(value.Int(9)) {
		t.Error("Apply constant failed")
	}
	if _, ok := s.Apply(V("missing")); ok {
		t.Error("Apply unbound variable must fail")
	}
	c := s.Clone()
	c["x"] = value.Str("b")
	if !s["x"].Eq(value.Str("a")) {
		t.Error("Clone shares storage")
	}
}

func TestSubstStringDeterministic(t *testing.T) {
	s := Subst{"y": value.Null(), "x": value.Int(1)}
	if got := s.String(); got != "{x=1, y=null}" {
		t.Errorf("Subst.String = %q", got)
	}
}

func TestQuickEvalGroundEqMatchesValueEq(t *testing.T) {
	f := func(i, j int64) bool {
		return EQ.EvalGround(value.Int(i), value.Int(j)) == (i == j) &&
			LT.EvalGround(value.Int(i), value.Int(j)) == (i < j) &&
			GEQ.EvalGround(value.Int(i), value.Int(j)) == (i >= j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNegationComplement(t *testing.T) {
	ops := []CompOp{EQ, NEQ, LT, LEQ, GT, GEQ}
	f := func(opIdx uint8, i, j int64) bool {
		op := ops[int(opIdx)%len(ops)]
		l, r := value.Int(i), value.Int(j)
		return op.EvalGround(l, r) != op.Negate().EvalGround(l, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
