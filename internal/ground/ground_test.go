package ground

import (
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

func v(name string) term.T                       { return term.V(name) }
func atom(pred string, args ...term.T) term.Atom { return term.NewAtom(pred, args...) }
func ca(s string) term.T                         { return term.CStr(s) }

func mustGround(t *testing.T, p *logic.Program) *Program {
	t.Helper()
	gp, err := Ground(p)
	if err != nil {
		t.Fatal(err)
	}
	return gp
}

func TestGroundPositiveChain(t *testing.T) {
	// q(a). q(b). p(x) v s(x) :- q(x). r(x) :- p(x).
	// The disjunctive head keeps p undecided, so the chain stays in rules.
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a")), atom("q", ca("b"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", v("x")), atom("s", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
			{Head: []term.Atom{atom("r", v("x"))}, Pos: []term.Atom{atom("p", v("x"))}},
		},
	}
	gp := mustGround(t, p)
	// Facts q(a), q(b); possible p(a),p(b),s(a),s(b),r(a),r(b).
	if len(gp.Facts) != 2 {
		t.Errorf("facts = %d", len(gp.Facts))
	}
	// Rule instances: p(a) v s(a), p(b) v s(b) (q facts dropped),
	// r(a):-p(a), r(b):-p(b).
	if len(gp.Rules) != 4 {
		t.Errorf("rules = %d:\n%s", len(gp.Rules), gp)
	}
	for _, r := range gp.Rules {
		if len(r.Neg) != 0 {
			t.Errorf("unexpected negation: %v", r)
		}
	}
}

func TestGroundDropsUnderivableNegation(t *testing.T) {
	// p(x) v s(x) :- q(x), not r(x). with no way to derive r: negation
	// dropped. The disjunctive head keeps the rule from folding to a fact.
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a"))},
		Rules: []logic.Rule{
			{
				Head: []term.Atom{atom("p", v("x")), atom("s", v("x"))},
				Pos:  []term.Atom{atom("q", v("x"))},
				Neg:  []term.Atom{atom("r", v("x"))},
			},
		},
	}
	gp := mustGround(t, p)
	if len(gp.Rules) != 1 || len(gp.Rules[0].Neg) != 0 || len(gp.Rules[0].Pos) != 0 {
		t.Errorf("rules:\n%s", gp)
	}
}

func TestGroundKeepsDerivableNegation(t *testing.T) {
	// r is derivable but not decided (it is one disjunct of a choice), so
	// the negation must stay.
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a")), atom("s", ca("a"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("r", v("x")), atom("t", v("x"))}, Pos: []term.Atom{atom("s", v("x"))}},
			{
				Head: []term.Atom{atom("p", v("x"))},
				Pos:  []term.Atom{atom("q", v("x"))},
				Neg:  []term.Atom{atom("r", v("x"))},
			},
		},
	}
	gp := mustGround(t, p)
	var found bool
	for _, r := range gp.Rules {
		if len(r.Neg) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("negation lost:\n%s", gp)
	}
}

func TestGroundNegatedFactKillsRule(t *testing.T) {
	// p(x) :- q(x), not q(x) ... via a fact: not q(a) is false.
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a"))},
		Rules: []logic.Rule{
			{
				Head: []term.Atom{atom("p", v("x"))},
				Pos:  []term.Atom{atom("q", v("x"))},
				Neg:  []term.Atom{atom("q", v("x"))},
			},
		},
	}
	gp := mustGround(t, p)
	if len(gp.Rules) != 0 {
		t.Errorf("rule with negated fact must vanish:\n%s", gp)
	}
}

func TestGroundBuiltins(t *testing.T) {
	// p(x,y) v s(x,y) :- q(x), q(y), x != y. (disjunctive, so its
	// instances stay rules)
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a")), atom("q", ca("b"))},
		Rules: []logic.Rule{
			{
				Head:     []term.Atom{atom("p", v("x"), v("y")), atom("s", v("x"), v("y"))},
				Pos:      []term.Atom{atom("q", v("x")), atom("q", v("y"))},
				Builtins: []term.Builtin{{Op: term.NEQ, L: v("x"), R: v("y")}},
			},
		},
	}
	gp := mustGround(t, p)
	if len(gp.Rules) != 2 {
		t.Errorf("want 2 instances (a,b) and (b,a):\n%s", gp)
	}
}

func TestGroundNullIsOrdinaryConstant(t *testing.T) {
	// Rules must join on null like any constant, and x != null must
	// filter it (Definition 9's guards).
	p := &logic.Program{
		Facts: []term.Atom{
			atom("q", term.CNull()),
			atom("q", ca("a")),
		},
		Rules: []logic.Rule{
			{
				Head:     []term.Atom{atom("p", v("x"))},
				Pos:      []term.Atom{atom("q", v("x"))},
				Builtins: []term.Builtin{{Op: term.NEQ, L: v("x"), R: term.CNull()}},
			},
			{
				Head: []term.Atom{atom("r", v("x"))},
				Pos:  []term.Atom{atom("q", v("x"))},
			},
		},
	}
	gp := mustGround(t, p)
	out := gp.String()
	if strings.Contains(out, "p(null)") {
		t.Errorf("x != null not applied:\n%s", out)
	}
	if !strings.Contains(out, "r(null)") {
		t.Errorf("null lost as a constant:\n%s", out)
	}
}

func TestGroundDisjunctiveHead(t *testing.T) {
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a"))},
		Rules: []logic.Rule{
			{
				Head: []term.Atom{atom("p", v("x")), atom("r", v("x"))},
				Pos:  []term.Atom{atom("q", v("x"))},
			},
			{
				Head: []term.Atom{atom("s", v("x"))},
				Pos:  []term.Atom{atom("r", v("x"))},
			},
		},
	}
	gp := mustGround(t, p)
	// possible must include both disjuncts: s(a) reachable through r(a).
	if _, ok := atomID(gp, relational.F("s", value.Str("a"))); !ok {
		t.Errorf("s(a) not reachable through disjunctive head:\n%s", gp)
	}
}

func TestGroundConstraintRule(t *testing.T) {
	p := &logic.Program{
		Facts: []term.Atom{atom("p", ca("a")), atom("q", ca("a"))},
		Rules: []logic.Rule{
			{Pos: []term.Atom{atom("p", v("x")), atom("q", v("x"))}},
		},
	}
	gp := mustGround(t, p)
	// Both body atoms are facts: the ground constraint has empty head
	// and empty body — an unconditional contradiction.
	if len(gp.Rules) != 1 || len(gp.Rules[0].Head) != 0 || len(gp.Rules[0].Pos) != 0 {
		t.Errorf("rules:\n%s", gp)
	}
}

func TestGroundHeadFactSimplification(t *testing.T) {
	// A rule whose head instance is already a fact disappears.
	p := &logic.Program{
		Facts: []term.Atom{atom("p", ca("a")), atom("q", ca("a"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
		},
	}
	gp := mustGround(t, p)
	if len(gp.Rules) != 0 {
		t.Errorf("satisfied rule kept:\n%s", gp)
	}
}

func TestGroundUnsafeRejected(t *testing.T) {
	p := &logic.Program{
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", v("x"))}},
		},
	}
	if _, err := Ground(p); err == nil {
		t.Error("unsafe program accepted")
	}
}

func TestGroundDeduplicatesRules(t *testing.T) {
	// Two source rules that instantiate identically collapse. Their
	// disjunctive heads keep the instances from folding to facts.
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", ca("a")), atom("s", ca("a"))}, Pos: []term.Atom{atom("q", v("x"))}},
			{Head: []term.Atom{atom("p", v("x")), atom("s", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
		},
	}
	gp := mustGround(t, p)
	if len(gp.Rules) != 1 {
		t.Errorf("rules = %d:\n%s", len(gp.Rules), gp)
	}
}

func TestRecursiveGrounding(t *testing.T) {
	// Transitive closure: reach(x,y) :- edge(x,y).
	// reach(x,z) :- reach(x,y), edge(y,z).
	p := &logic.Program{
		Facts: []term.Atom{
			atom("edge", ca("a"), ca("b")),
			atom("edge", ca("b"), ca("c")),
			atom("edge", ca("c"), ca("d")),
		},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("reach", v("x"), v("y"))}, Pos: []term.Atom{atom("edge", v("x"), v("y"))}},
			{
				Head: []term.Atom{atom("reach", v("x"), v("z"))},
				Pos:  []term.Atom{atom("reach", v("x"), v("y")), atom("edge", v("y"), v("z"))},
			},
		},
	}
	gp := mustGround(t, p)
	for _, want := range []relational.Fact{
		relational.F("reach", value.Str("a"), value.Str("d")),
		relational.F("reach", value.Str("b"), value.Str("d")),
	} {
		if _, ok := atomID(gp, want); !ok {
			t.Errorf("missing possible atom %v:\n%s", want, gp)
		}
	}
}

// TestGroundFoldsDecidedRules pins the fold of rules that facts decide:
// derived facts leave rules as facts, an atom no live rule can derive is
// false and vanishes with every rule it blocks, a rule whose head holds is
// dropped, and rules that become equal merge.
func TestGroundFoldsDecidedRules(t *testing.T) {
	// q(a).  p(x) :- q(x).  r(x) :- p(x), not u(x).  u(x) :- w(x), q(x).
	// w(x) :- q(x), not p(x).  t(x) v s(x) :- q(x), not u(x).
	// t(x) v s(x) :- r(x).  r(x) v t(x) :- p(x).  :- t(x), p(x).
	p := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
			{
				Head: []term.Atom{atom("r", v("x"))},
				Pos:  []term.Atom{atom("p", v("x"))},
				Neg:  []term.Atom{atom("u", v("x"))},
			},
			{Head: []term.Atom{atom("u", v("x"))}, Pos: []term.Atom{atom("w", v("x")), atom("q", v("x"))}},
			{
				Head: []term.Atom{atom("w", v("x"))},
				Pos:  []term.Atom{atom("q", v("x"))},
				Neg:  []term.Atom{atom("p", v("x"))},
			},
			{
				Head: []term.Atom{atom("t", v("x")), atom("s", v("x"))},
				Pos:  []term.Atom{atom("q", v("x"))},
				Neg:  []term.Atom{atom("u", v("x"))},
			},
			{Head: []term.Atom{atom("t", v("x")), atom("s", v("x"))}, Pos: []term.Atom{atom("r", v("x"))}},
			{Head: []term.Atom{atom("r", v("x")), atom("t", v("x"))}, Pos: []term.Atom{atom("p", v("x"))}},
			{Pos: []term.Atom{atom("t", v("x")), atom("p", v("x"))}},
		},
	}
	gp := mustGround(t, p)
	// p(a) follows from the fact q(a), so w(a) has no live rule and is
	// false, u(a) with it, and r(a) follows; r(a) v t(a) then holds. The
	// two t v s rules merge, and the constraint keeps only t(a).
	want := "q(a).\np(a).\nr(a).\nt(a) v s(a).\n:- t(a).\n"
	if got := gp.String(); got != want {
		t.Errorf("folded program:\n%s\nwant:\n%s", got, want)
	}
	for _, name := range []string{"u", "w"} {
		if _, ok := atomID(gp, relational.F(name, value.Str("a"))); !ok {
			t.Errorf("%s(a) must stay interned: atom ids do not depend on the fold", name)
		}
	}
}
