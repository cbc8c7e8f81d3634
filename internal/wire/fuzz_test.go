package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/value"
	"repro/internal/wire"
)

// FuzzWireRoundTrip pins the package contract under adversarial input:
// render∘parse is a fixpoint. Any JSON that decodes into a wire document
// must survive marshal→unmarshal→marshal byte-identically after one
// canonicalization pass, and any parseable constraint/query source must
// render to canonical text that reparses to the same canonical text.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(`{"facts":[{"pred":"r","args":["a",1,null]}]}`,
		`{"added":[{"pred":"r","args":["a"]}],"removed":[{"pred":"s"}]}`,
		"r(X, Y), r(X, Z) -> Y = Z.\ns(U, V) -> r(V, W).\nr(X, Y), isnull(X) -> false.",
		`q(V) :- s(U, V), not r(V, V), U >= 3.`)
	f.Add(`{"facts":[]}`, `{}`, `p(X), q(X) -> false.`, `q :- p("two words", -7).`)
	f.Add(`{"facts":[{"pred":"p","args":[9223372036854775807]}]}`, `{"added":null}`,
		`r(X) -> s(X, Z).`, "q(X) :- r(X).\nq(X) :- s(X, Y).")

	f.Fuzz(func(t *testing.T, instJSON, deltaJSON, icSrc, qSrc string) {
		var wi wire.Instance
		if err := json.Unmarshal([]byte(instJSON), &wi); err == nil {
			d := wi.ToInstance()
			b1, err := json.Marshal(wire.FromInstance(d))
			if err != nil {
				t.Fatalf("marshal instance: %v", err)
			}
			var wi2 wire.Instance
			if err := json.Unmarshal(b1, &wi2); err != nil {
				t.Fatalf("canonical instance does not decode: %v\n%s", err, b1)
			}
			if !d.Equal(wi2.ToInstance()) {
				t.Fatalf("instance round trip diverged:\n%s", b1)
			}
			b2, _ := json.Marshal(wire.FromInstance(wi2.ToInstance()))
			if string(b1) != string(b2) {
				t.Fatalf("instance marshal is not a fixpoint:\n%s\n%s", b1, b2)
			}
		}

		var wd wire.Delta
		if err := json.Unmarshal([]byte(deltaJSON), &wd); err == nil {
			b1, err := json.Marshal(wire.FromDelta(wd.ToDelta()))
			if err != nil {
				t.Fatalf("marshal delta: %v", err)
			}
			var wd2 wire.Delta
			if err := json.Unmarshal(b1, &wd2); err != nil {
				t.Fatalf("canonical delta does not decode: %v\n%s", err, b1)
			}
			b2, _ := json.Marshal(wire.FromDelta(wd2.ToDelta()))
			if string(b1) != string(b2) {
				t.Fatalf("delta marshal is not a fixpoint:\n%s\n%s", b1, b2)
			}
		}

		if set, err := parser.Constraints(icSrc); err == nil {
			r1 := wire.FromConstraints(set).Source
			set2, err := wire.ConstraintSet{Source: r1}.ToSet()
			if err != nil {
				t.Fatalf("canonical constraints do not reparse: %v\n%s", err, r1)
			}
			if r2 := wire.FromConstraints(set2).Source; r1 != r2 {
				t.Fatalf("constraint render is not a fixpoint:\n%s\n%s", r1, r2)
			}
		}

		if q, err := parser.Query(qSrc); err == nil {
			r1 := wire.FromQuery(q).Source
			q2, err := wire.Query{Source: r1}.ToQuery()
			if err != nil {
				t.Fatalf("canonical query does not reparse: %v\n%s", err, r1)
			}
			if r2 := wire.FromQuery(q2).Source; r1 != r2 {
				t.Fatalf("query render is not a fixpoint:\n%s\n%s", r1, r2)
			}
		}
	})
}

// FuzzFactDecode pins the hand-written decoder of Instance and Delta
// against encoding/json's reflective decoding of the same shapes, with
// unknown fields disallowed (the mirror types below, whose constant
// decoder is the reflective one the hand-written decoder replaced). On
// every input whose keys are unique within their object and match a field
// name exactly where they match one up to case, the two must accept the
// same documents and yield identical facts; the hand-written decoder
// rejects the other inputs on purpose. A direct UnmarshalJSON call, which
// skips encoding/json's syntax check, must agree with json.Unmarshal.
func FuzzFactDecode(f *testing.F) {
	for _, seed := range []string{
		`{"facts":[{"pred":"r","args":["a",1,null]},{"pred":"s"}]}`,
		`{"added":[{"pred":"r","args":["a"]}],"removed":[{"pred":"s","args":[]}]}`,
		` { "facts" : [ null , { "args" : null , "pred" : null } ] } `,
		`{"facts":[{"pred":"p\"q\\ré😀","args":["\ud800","\n\t","a\u0000b"]}]}`,
		"{\"facts\":[{\"pred\":\"\xff\xfe\",\"args\":[\"\xc3\x28\",\"ok\"]}]}",
		`{"facts":[{"pred":"r","args":[1.5]}]}`,
		`{"facts":[{"pred":"r","args":[1e3]}]}`,
		`{"facts":[{"pred":"r","args":[-0,9223372036854775807,-9223372036854775808]}]}`,
		`{"facts":[{"pred":"r","args":[9223372036854775808]}]}`,
		`{"facts":[{"pred":"r","args":[["nested"],[]]}]}`,
		`{"facts":[{"pred":"r","args":[true,{}]}]}`,
		`{"facts":[[{"pred":"r"}]]}`,
		`{"facts":null}`,
		`{"added":null,"removed":[null]}`,
		`{"facts":[{"pred":"r"}]}`,
		`{"Facts":[]}`,
		`{"facts":[],"facts":[]}`,
		`{"facts":[{"pred":"r","extra":1}]}`,
		`{"facts":[{"pred":"r","args":[01]}]}`,
		`null`,
		`[]`,
		`{"facts":[]} x`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFactDecode[wire.Instance, mirrorInstance](t, data, func(wi wire.Instance, m mirrorInstance) bool {
			return reflect.DeepEqual(wi.Facts, m.facts())
		})
		checkFactDecode[wire.Delta, mirrorDelta](t, data, func(wd wire.Delta, m mirrorDelta) bool {
			return reflect.DeepEqual(wd.Added, mirrorFacts(m.Added)) && reflect.DeepEqual(wd.Removed, mirrorFacts(m.Removed))
		})
	})
}

// checkFactDecode decodes data into a fresh W with the hand-written
// decoder, by json.Unmarshal and by a direct UnmarshalJSON call, and into
// a fresh mirror M, and checks that they agree.
func checkFactDecode[W any, M any, PW interface {
	*W
	json.Unmarshaler
}](t *testing.T, data []byte, same func(W, M) bool) {
	t.Helper()
	var w, direct W
	err := json.Unmarshal(data, &w)
	directErr := PW(&direct).UnmarshalJSON(data)
	if (err == nil) != (directErr == nil) {
		t.Fatalf("%T of %q: json.Unmarshal error %v, UnmarshalJSON error %v", w, data, err, directErr)
	}
	if err == nil && !reflect.DeepEqual(w, direct) {
		t.Fatalf("%T of %q: json.Unmarshal gave %+v, UnmarshalJSON %+v", w, data, w, direct)
	}
	if !json.Valid(data) || !exactKeys(data) {
		return
	}
	var m M
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	mirrorErr := dec.Decode(&m)
	if (err == nil) != (mirrorErr == nil) {
		t.Fatalf("%T of %q: decoder error %v, reflective mirror error %v", w, data, err, mirrorErr)
	}
	if err == nil && !same(w, m) {
		t.Fatalf("%T of %q: decoder gave %+v, reflective mirror %+v", w, data, w, m)
	}
}

// wireFieldNames are the JSON keys of the fact-list documents.
var wireFieldNames = []string{"facts", "added", "removed", "pred", "args"}

// exactKeys reports whether every object of the valid JSON document data
// has unique keys, none of which matches a wire field name up to case
// without matching it exactly.
func exactKeys(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var walk func() bool
	walk = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					return false
				}
				key := tok.(string)
				if seen[key] {
					return false
				}
				seen[key] = true
				for _, name := range wireFieldNames {
					if key != name && strings.EqualFold(key, name) {
						return false
					}
				}
				if !walk() {
					return false
				}
			}
			_, err = dec.Token()
			return err == nil
		case json.Delim('['):
			for dec.More() {
				if !walk() {
					return false
				}
			}
			_, err = dec.Token()
			return err == nil
		}
		return true
	}
	return walk()
}

// The mirror types are the fact-list documents as encoding/json decodes
// them by reflection, with the constant decoder the wire types had before
// they got a hand-written one.
type (
	mirrorValue struct{ V value.V }
	mirrorFact  struct {
		Pred string        `json:"pred"`
		Args []mirrorValue `json:"args,omitempty"`
	}
	mirrorInstance struct {
		Facts []mirrorFact `json:"facts"`
	}
	mirrorDelta struct {
		Added   []mirrorFact `json:"added,omitempty"`
		Removed []mirrorFact `json:"removed,omitempty"`
	}
)

func (v *mirrorValue) UnmarshalJSON(b []byte) error {
	switch {
	case string(b) == "null":
		v.V = value.Null()
	case len(b) > 0 && b[0] == '"':
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v.V = value.Str(s)
	case len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9'):
		i, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			return fmt.Errorf("constant %s is not a 64-bit integer", b)
		}
		v.V = value.Int(i)
	default:
		return fmt.Errorf("constant must be null, an integer, or a string (got %s)", b)
	}
	return nil
}

func (m mirrorInstance) facts() []wire.Fact { return mirrorFacts(m.Facts) }

// mirrorFacts converts mirror facts to wire facts, keeping nil lists nil.
func mirrorFacts(fs []mirrorFact) []wire.Fact {
	if fs == nil {
		return nil
	}
	out := make([]wire.Fact, len(fs))
	for i, f := range fs {
		out[i].Pred = f.Pred
		if f.Args != nil {
			out[i].Args = make([]wire.Value, len(f.Args))
			for j, v := range f.Args {
				out[i].Args[j] = wire.Value{V: v.V}
			}
		}
	}
	return out
}
