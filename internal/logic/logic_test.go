package logic

import (
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

func v(name string) term.T                       { return term.V(name) }
func atom(pred string, args ...term.T) term.Atom { return term.NewAtom(pred, args...) }

func TestRuleString(t *testing.T) {
	r := Rule{
		Head: []term.Atom{atom("p", v("x")), atom("q", v("x"))},
		Pos:  []term.Atom{atom("r", v("x"))},
		Neg:  []term.Atom{atom("s", v("x"))},
		Builtins: []term.Builtin{
			{Op: term.NEQ, L: v("x"), R: term.CNull()},
		},
	}
	want := "p(x) v q(x) :- r(x), not s(x), x != null."
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	c := Rule{Pos: []term.Atom{atom("p", v("x"))}}
	if got := c.String(); got != ":- p(x)." {
		t.Errorf("constraint String = %q", got)
	}
	f := Rule{Head: []term.Atom{atom("p", term.CStr("a"))}}
	if got := f.String(); got != "p(a)." {
		t.Errorf("fact String = %q", got)
	}
}

func TestSafety(t *testing.T) {
	safe := Rule{
		Head: []term.Atom{atom("p", v("x"))},
		Pos:  []term.Atom{atom("q", v("x"), v("y"))},
		Neg:  []term.Atom{atom("r", v("y"))},
	}
	if !safe.Safe() {
		t.Error("safe rule reported unsafe")
	}
	unsafeHead := Rule{
		Head: []term.Atom{atom("p", v("z"))},
		Pos:  []term.Atom{atom("q", v("x"))},
	}
	if unsafeHead.Safe() {
		t.Error("unsafe head variable accepted")
	}
	unsafeNeg := Rule{
		Head: []term.Atom{atom("p", v("x"))},
		Pos:  []term.Atom{atom("q", v("x"))},
		Neg:  []term.Atom{atom("r", v("w"))},
	}
	if unsafeNeg.Safe() {
		t.Error("unsafe negated variable accepted")
	}
	unsafeBuiltin := Rule{
		Head:     []term.Atom{atom("p", v("x"))},
		Pos:      []term.Atom{atom("q", v("x"))},
		Builtins: []term.Builtin{{Op: term.GT, L: v("u"), R: term.CInt(0)}},
	}
	if unsafeBuiltin.Safe() {
		t.Error("unsafe builtin variable accepted")
	}
}

func TestProgramValidate(t *testing.T) {
	p := Program{Facts: []term.Atom{atom("p", v("x"))}}
	if err := p.Validate(); err == nil {
		t.Error("non-ground fact accepted")
	}
	p.Facts[0] = atom("p", term.CStr("a"))
	p.Rules = append(p.Rules, Rule{Head: []term.Atom{atom("q", v("x"))}, Pos: []term.Atom{atom("p", v("x"))}})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Rules = append(p.Rules, Rule{Head: []term.Atom{atom("q", v("z"))}, Pos: []term.Atom{atom("p", v("x"))}})
	if err := p.Validate(); err == nil {
		t.Error("unsafe rule accepted")
	}
}

func TestAddInstance(t *testing.T) {
	d := relational.NewInstance(
		relational.F("R", value.Str("a"), value.Null()),
		relational.F("S", value.Int(3)),
	)
	var p Program
	p.AddInstance(d)
	if len(p.Facts) != 2 {
		t.Fatalf("facts = %v", p.Facts)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := p.String()
	if !strings.Contains(out, "R(a,null).") || !strings.Contains(out, "S(3).") {
		t.Errorf("String:\n%s", out)
	}
}

func TestDLVExport(t *testing.T) {
	p := Program{Facts: []term.Atom{
		atom("r", term.CStr("a"), term.CNull()),
		atom("s", term.CStr("CS27"), term.CInt(21)),
	}}
	p.Rules = append(p.Rules, Rule{
		Head:     []term.Atom{atom("r_fa", v("x"), v("y")), atom("q", v("x"))},
		Pos:      []term.Atom{atom("r", v("x"), v("y"))},
		Neg:      []term.Atom{atom("aux", v("x"))},
		Builtins: []term.Builtin{{Op: term.NEQ, L: v("x"), R: term.CNull()}},
	})
	out := p.DLV()
	for _, want := range []string{
		"r(a,null).",
		`s("CS27",21).`,
		`r_fa(X,Y) v q(X) :- r(X,Y), not aux(X), X != null.`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DLV output missing %q:\n%s", want, out)
		}
	}
}
