package value

import (
	"testing"
	"testing/quick"
)

func TestConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		v    V
		kind Kind
		str  string
	}{
		{Null(), KindNull, "null"},
		{Int(0), KindInt, "0"},
		{Int(-7), KindInt, "-7"},
		{Int(42), KindInt, "42"},
		{Str(""), KindStr, ""},
		{Str("abc"), KindStr, "abc"},
		{Str("null-ish"), KindStr, "null-ish"},
	}
	for _, tt := range tests {
		if got := tt.v.Kind(); got != tt.kind {
			t.Errorf("Kind(%v) = %v, want %v", tt.v, got, tt.kind)
		}
		if got := tt.v.String(); got != tt.str {
			t.Errorf("String(%#v) = %q, want %q", tt.v, got, tt.str)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v V
	if !v.IsNull() {
		t.Fatal("zero V is not null")
	}
	if !v.Eq(Null()) {
		t.Fatal("zero V != Null()")
	}
}

func TestEqNullAsOrdinaryConstant(t *testing.T) {
	// Definition 4: over D^A, null is treated as any other constant,
	// so null = null holds (Example 12 relies on this).
	if !Null().Eq(Null()) {
		t.Error("null must equal null in ordinary-constant mode")
	}
	if Null().Eq(Int(1)) || Null().Eq(Str("null")) {
		t.Error("null must differ from non-null constants")
	}
	if Int(42).Eq(Str("42")) {
		t.Error("int 42 must differ from string \"42\"")
	}
	if !Int(42).Eq(Int(42)) || !Str("a").Eq(Str("a")) {
		t.Error("reflexive equality broken")
	}
}

func TestEq3SQLMode(t *testing.T) {
	tests := []struct {
		a, b V
		want Bool3
	}{
		{Null(), Null(), Unknown3},
		{Null(), Int(1), Unknown3},
		{Int(1), Null(), Unknown3},
		{Int(1), Int(1), True3},
		{Int(1), Int(2), False3},
		{Str("x"), Str("x"), True3},
		{Str("x"), Str("y"), False3},
	}
	for _, tt := range tests {
		if got := tt.a.Eq3(tt.b); got != tt.want {
			t.Errorf("Eq3(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	ordered := []V{Null(), Int(-5), Int(0), Int(10), Str(""), Str("a"), Str("b")}
	for i, a := range ordered {
		for j, b := range ordered {
			got := a.Compare(b)
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", a, b, got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", a, b, got)
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", a, b, got)
			}
		}
	}
}

func TestOrderComparability(t *testing.T) {
	if _, ok := Null().Order(Int(1)); ok {
		t.Error("null must not be order-comparable")
	}
	if _, ok := Int(1).Order(Str("a")); ok {
		t.Error("cross-kind values must not be order-comparable")
	}
	if cmp, ok := Int(1).Order(Int(2)); !ok || cmp >= 0 {
		t.Errorf("Order(1,2) = %d,%v", cmp, ok)
	}
	if cmp, ok := Str("b").Order(Str("a")); !ok || cmp <= 0 {
		t.Errorf("Order(b,a) = %d,%v", cmp, ok)
	}
}

func TestKeyInjective(t *testing.T) {
	vals := []V{
		Null(), Int(0), Int(42), Int(-42), Str(""), Str("0"), Str("42"),
		Str("null"), Str("n"), Str("i42"), Str(`s"x"`), Str("x"),
	}
	seen := map[string]V{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Key collision: %v and %v both map to %q", prev, v, k)
		}
		seen[k] = v
	}
}

// genValue deterministically derives a value from quick-generated inputs.
func genValue(sel uint8, i int64, s string) V {
	switch sel % 3 {
	case 0:
		return Null()
	case 1:
		return Int(i)
	default:
		return Str(s)
	}
}

func TestQuickEqIffKeyEqual(t *testing.T) {
	f := func(s1, s2 uint8, i1, i2 int64, a, b string) bool {
		v, w := genValue(s1, i1, a), genValue(s2, i2, b)
		return v.Eq(w) == (v.Key() == w.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareConsistentWithEq(t *testing.T) {
	f := func(s1, s2 uint8, i1, i2 int64, a, b string) bool {
		v, w := genValue(s1, i1, a), genValue(s2, i2, b)
		return (v.Compare(w) == 0) == v.Eq(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(s1, s2 uint8, i1, i2 int64, a, b string) bool {
		v, w := genValue(s1, i1, a), genValue(s2, i2, b)
		return v.Compare(w) == -w.Compare(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitive(t *testing.T) {
	f := func(s1, s2, s3 uint8, i1, i2, i3 int64, a, b, c string) bool {
		u, v, w := genValue(s1, i1, a), genValue(s2, i2, b), genValue(s3, i3, c)
		if u.Compare(v) <= 0 && v.Compare(w) <= 0 {
			return u.Compare(w) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
