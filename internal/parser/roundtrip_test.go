package parser_test

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
	"repro/internal/wire"
)

// stringConstants are the string constants a canonical rendering must
// carry through a reparse: every one-byte string (the quote and the
// backslash among them), the empty string, the keyword null, strings
// holding a quote or a backslash, and invalid UTF-8.
func stringConstants() []string {
	out := []string{"", "null", `a"b`, `a\b`, `\x13`, "\xff\xfe", "ok\xe2\x82", "é\x80"}
	for c := 0; c < 256; c++ {
		out = append(out, string([]byte{byte(c)}))
	}
	return out
}

// TestStringConstantsSurviveReparse renders each string constant with
// FormatValue, wire.FromConstraints and wire.FromQuery, and checks that the
// parser reads back the same constant.
func TestStringConstantsSurviveReparse(t *testing.T) {
	x := term.V("X")
	for _, s := range stringConstants() {
		want := value.Str(s)

		src := "p(" + parser.FormatValue(want) + ")."
		if d, err := parser.Instance(src); err != nil {
			t.Errorf("FormatValue(%q): %q does not parse: %v", s, src, err)
		} else if !d.Has(relational.F("p", want)) {
			t.Errorf("FormatValue(%q): %q reparses as %v", s, src, d)
		}

		set := constraint.MustSet([]*constraint.IC{{
			Name: "c",
			Body: []term.Atom{{Pred: "p", Args: []term.T{x}}},
			Head: []term.Atom{{Pred: "r", Args: []term.T{x, term.CStr(s)}}},
		}}, nil)
		src = wire.FromConstraints(set).Source
		if set2, err := parser.Constraints(src); err != nil {
			t.Errorf("FromConstraints(%q): %q does not parse: %v", s, src, err)
		} else if got := set2.ICs[0].Head[0].Args[1]; got.IsVar() || got.Const != want {
			t.Errorf("FromConstraints(%q): %q reparses the constant as %v", s, src, got)
		}

		q := &query.Q{Name: "q", Head: []string{"X"}, Disjuncts: []query.Conj{{
			Lits: []query.Literal{{Atom: term.Atom{Pred: "p", Args: []term.T{x, term.CStr(s)}}}},
		}}}
		src = wire.FromQuery(q).Source
		if q2, err := parser.Query(src); err != nil {
			t.Errorf("FromQuery(%q): %q does not parse: %v", s, src, err)
		} else if got := q2.Disjuncts[0].Lits[0].Atom.Args[1]; got.IsVar() || got.Const != want {
			t.Errorf("FromQuery(%q): %q reparses the constant as %v", s, src, got)
		}
	}
}
