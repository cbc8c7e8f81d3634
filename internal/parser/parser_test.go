package parser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/nullsem"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/value"
)

func TestParseInstance(t *testing.T) {
	d, err := Instance(`
		% Example 14
		course(21, c15).
		course(34, c18).
		student(21, "Ann").
		student(45, "Paul").
		flag.
		withnull(null, 7).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 {
		t.Fatalf("facts = %d: %v", d.Len(), d)
	}
	if !d.Has(relational.F("student", value.Int(21), value.Str("Ann"))) {
		t.Error("missing student(21,Ann)")
	}
	if !d.Has(relational.F("withnull", value.Null(), value.Int(7))) {
		t.Error("missing withnull(null,7)")
	}
	if !d.Has(relational.F("flag")) {
		t.Error("missing 0-ary fact")
	}
}

func TestParseInstanceErrors(t *testing.T) {
	cases := []string{
		"course(X, c15).",   // variable in a fact
		"course(21, c15)",   // missing dot
		`course(21, "a.`,    // unterminated string
		`course(21, "a\").`, // escaped closing quote: unterminated
		`course(21, "\q").`, // unknown escape
		"course(21,, c15).", // double comma
	}
	for _, src := range cases {
		if _, err := Instance(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		parse     func(string) error
		src       string
		line, col int
	}{
		{"bad char", instErr, "p(1).\n  p(2) ; q(3).", 2, 8},
		{"non-ground fact", instErr, "p(1).\np(X).", 2, 1},
		{"missing dot", instErr, "p(1)\nq(2).", 2, 1},
		{"bad head var", queryErr, "q(X) :- p(X).\nq(21) :- p(21).", 2, 1},
		{"bad operator", constrErr, "p(X) -> X ~ 2.", 1, 11},
		{"bad escape", instErr, "p(1).\np(\"a\\q\").", 2, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.parse(tc.src)
			if err == nil {
				t.Fatalf("accepted %q", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a *ParseError", err, err)
			}
			if pe.Line != tc.line || pe.Col != tc.col {
				t.Errorf("position = %d:%d, want %d:%d (%v)", pe.Line, pe.Col, tc.line, tc.col, err)
			}
			if !strings.HasPrefix(err.Error(), "line ") {
				t.Errorf("message %q lacks position prefix", err.Error())
			}
		})
	}
}

func instErr(src string) error   { _, err := Instance(src); return err }
func constrErr(src string) error { _, err := Constraints(src); return err }
func queryErr(src string) error  { _, err := Query(src); return err }

func TestParseRIC(t *testing.T) {
	set, err := Constraints(`course(Id, Code) -> student(Id, Name).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.ICs) != 1 || len(set.NNCs) != 0 {
		t.Fatalf("set = %+v", set)
	}
	ic := set.ICs[0]
	if ic.Classify() != constraint.ClassRIC {
		t.Errorf("class = %v", ic.Classify())
	}
	if got := ic.String(); got != "course(Id,Code) -> exists Name: student(Id,Name)" {
		t.Errorf("String = %q", got)
	}
}

func TestParseUICWithDisjunctionAndPhi(t *testing.T) {
	set, err := Constraints(`p(X, Y), r(Y, Z, W) -> s(X) | Z != 2 | W <= Y.`)
	if err != nil {
		t.Fatal(err)
	}
	ic := set.ICs[0]
	if ic.Classify() != constraint.ClassUIC {
		t.Errorf("class = %v", ic.Classify())
	}
	if len(ic.Head) != 1 || len(ic.Phi) != 2 {
		t.Fatalf("head/phi = %d/%d", len(ic.Head), len(ic.Phi))
	}
}

func TestParseCheckAndFD(t *testing.T) {
	set, err := Constraints(`
		emp(Id, Nm, Sal) -> Sal > 100.
		r(X, Y), r(X, Z) -> Y = Z.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.ICs) != 2 {
		t.Fatalf("ICs = %d", len(set.ICs))
	}
	if !set.ICs[0].IsCheck() || !set.ICs[1].IsCheck() {
		t.Error("check constraints misparsed")
	}
}

func TestParseCheckWithOffset(t *testing.T) {
	// Example 8: u > w + 15.
	set, err := Constraints(`person(X,Y,Z,W), person(Z,S,T,U) -> U > W + 15.`)
	if err != nil {
		t.Fatal(err)
	}
	phi := set.ICs[0].Phi
	if len(phi) != 1 || phi[0].Offset != 15 {
		t.Fatalf("phi = %v", phi)
	}
}

func TestParseDenial(t *testing.T) {
	set, err := Constraints(`p(X), q(X) -> false.`)
	if err != nil {
		t.Fatal(err)
	}
	if !set.ICs[0].IsDenial() {
		t.Error("denial misparsed")
	}
}

func TestParseNNC(t *testing.T) {
	set, err := Constraints(`r(X, Y), isnull(X) -> false.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.NNCs) != 1 || len(set.ICs) != 0 {
		t.Fatalf("set = %+v", set)
	}
	nnc := set.NNCs[0]
	if nnc.Pred != "r" || nnc.Arity != 2 || nnc.Pos != 0 {
		t.Errorf("NNC = %+v", nnc)
	}
	// Two isnull atoms produce two NNCs.
	set2, err := Constraints(`r(X, Y), isnull(X), isnull(Y) -> false.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set2.NNCs) != 2 {
		t.Errorf("NNCs = %d", len(set2.NNCs))
	}
}

func TestParseNNCErrors(t *testing.T) {
	cases := []string{
		`r(X), isnull(X) -> s(X).`,        // isnull must conclude false
		`r(X), s(Y), isnull(X) -> false.`, // one predicate atom only
		`r(X), isnull(W) -> false.`,       // variable not in the atom
		`r(X), isnull(a) -> false.`,       // isnull takes a variable
	}
	for _, src := range cases {
		if _, err := Constraints(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseStandardizesSharedExistentials(t *testing.T) {
	// Example 1(c): shared existential variables get renamed apart.
	set, err := Constraints(`s(X) -> r(X, Y) | r3(X, Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	ic := set.ICs[0]
	if err := ic.Validate(); err != nil {
		t.Errorf("standardization failed: %v", err)
	}
}

func TestParsedConstraintsEvaluate(t *testing.T) {
	// End-to-end: Example 5 in parser syntax.
	d := MustInstance(`
		course(cs27, 21, w04).
		course(cs18, 34, null).
		course(cs50, null, w05).
		exp(21, cs27, 3).
		exp(34, cs18, null).
		exp(45, cs32, 2).
	`)
	set := MustConstraints(`
		course(Code, Id, Term) -> exp(Id, Code, Times).
		exp(I, C, T1), exp(I, C, T2) -> T1 = T2.
		exp(I, C, T), isnull(I) -> false.
		exp(I, C, T), isnull(C) -> false.
	`)
	if !nullsem.Satisfies(d, set, nullsem.NullAware) {
		t.Errorf("Example 5 must be consistent:\n%s", nullsem.Check(d, set, nullsem.NullAware))
	}
	d.Insert(relational.F("course", value.Str("cs41"), value.Int(18), value.Null()))
	if nullsem.Satisfies(d, set, nullsem.NullAware) {
		t.Error("inserting course(cs41,18,null) must break consistency")
	}
}

func TestParseQuery(t *testing.T) {
	q, err := Query(`
		q(Id) :- course(Id, Code), not dropped(Id), Id < 100.
		q(Id) :- star(Id).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q" || len(q.Head) != 1 || len(q.Disjuncts) != 2 {
		t.Fatalf("query = %+v", q)
	}
	if len(q.Disjuncts[0].Lits) != 2 || !q.Disjuncts[0].Lits[1].Neg {
		t.Errorf("disjunct 0 = %+v", q.Disjuncts[0])
	}
	if len(q.Disjuncts[0].Builtins) != 1 {
		t.Errorf("builtins = %v", q.Disjuncts[0].Builtins)
	}
}

func TestParseQueryEvaluates(t *testing.T) {
	d := MustInstance(`
		course(21, c15).
		course(34, c18).
	`)
	q := MustQuery(`q(X) :- course(X, c15).`)
	got, err := query.Eval(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(relational.Tuple{value.Int(21)}) {
		t.Errorf("answers = %v", got)
	}
}

func TestParseQueryErrors(t *testing.T) {
	cases := []string{
		``,                            // empty
		`q(X) :- p(X). r(X) :- p(X).`, // mismatched heads
		`q(a) :- p(X).`,               // constant in head
		`q(X) :- not p(X).`,           // unsafe
		`q(X) :- p(X)`,                // missing dot
	}
	for _, src := range cases {
		if _, err := Query(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    value.V
		want string
	}{
		{value.Null(), "null"},
		{value.Int(42), "42"},
		{value.Int(-3), "-3"},
		{value.Str("abc"), "abc"},
		{value.Str("Ann"), `"Ann"`},
		{value.Str("a b"), `"a b"`},
		{value.Str(""), `""`},
		{value.Str("null"), `"null"`},
		{value.Str(`a"b`), `"a\"b"`},
		{value.Str(`\`), `"\\"`},
		{value.Str("tab\t\x13"), `"tab\t\x13"`},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Round trip: parse what we format.
	for _, c := range cases {
		d, err := Instance("p(" + FormatValue(c.v) + ").")
		if err != nil {
			t.Errorf("round trip %q: %v", c.want, err)
			continue
		}
		if !d.Has(relational.F("p", c.v)) {
			t.Errorf("round trip %q lost the value", c.want)
		}
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	d, err := Instance(`p(-5).`)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Has(relational.F("p", value.Int(-5))) {
		t.Errorf("instance = %v", d)
	}
	set, err := Constraints(`p(X) -> X > -10.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.ICs[0].Phi) != 1 {
		t.Fatalf("phi = %v", set.ICs[0].Phi)
	}
	if !nullsem.Satisfies(d, set, nullsem.NullAware) {
		t.Error("-5 > -10 must hold")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	d, err := Instance(strings.Join([]string{
		"% comment",
		"# another",
		"  p(a).  % trailing",
		"",
		"q(b).",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Errorf("facts = %d", d.Len())
	}
}
