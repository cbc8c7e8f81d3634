package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/value"
)

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValueRoundTrip(t *testing.T) {
	cases := []value.V{
		value.Null(),
		value.Int(0),
		value.Int(-5),
		value.Int(math.MaxInt64),
		value.Int(math.MinInt64),
		value.Str(""),
		value.Str("null"),
		value.Str("42"),
		value.Str("two words"),
		value.Str("Ünïcødé"),
	}
	for _, v := range cases {
		b := marshal(t, Value{v})
		var got Value
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%v: unmarshal %s: %v", v, b, err)
		}
		if !got.V.Eq(v) || got.V.Kind() != v.Kind() {
			t.Errorf("%v round-tripped via %s to %v (%v)", v, b, got.V, got.V.Kind())
		}
	}

	// The integer 42 and the string "42" stay distinct on the wire.
	bi := marshal(t, Value{value.Int(42)})
	bs := marshal(t, Value{value.Str("42")})
	if string(bi) == string(bs) {
		t.Errorf("int 42 and string %q marshal identically: %s", "42", bi)
	}

	// String escapes decode as JSON defines them.
	var esc Value
	if err := json.Unmarshal([]byte(`"a\"b\u00e9"`), &esc); err != nil {
		t.Fatal(err)
	}
	if want := value.Str("a\"bé"); !esc.V.Eq(want) || esc.V.Kind() != want.Kind() {
		t.Errorf("escaped string decoded to %v (%v), want %v", esc.V, esc.V.Kind(), want)
	}

	// Non-integer numbers, integers outside int64, and composite values
	// are rejected.
	for _, bad := range []string{"1.5", "1e3", "9223372036854775808", "-9223372036854775809", "[1]", "{}", "true"} {
		var v Value
		if err := json.Unmarshal([]byte(bad), &v); err == nil {
			t.Errorf("unmarshal %s: want error, got %v", bad, v.V)
		}
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	d := parser.MustInstance(`
		r(a, 1). r(a, null). r("Two Words", -7).
		s(null). emp(21, "Ann", 5000).
	`)
	w := FromInstance(d)
	b := marshal(t, w)

	var got Instance
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.ToInstance().Equal(d) {
		t.Errorf("round-tripped instance differs:\n got %s\nwant %s", got.ToInstance(), d)
	}
	// The wire form is canonical: re-serializing the decoded instance
	// reproduces the exact bytes.
	if b2 := marshal(t, FromInstance(got.ToInstance())); string(b2) != string(b) {
		t.Errorf("wire form not canonical:\n %s\n vs %s", b, b2)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	dl := relational.Delta{
		Added:   []relational.Fact{relational.F("r", value.Str("a"), value.Null())},
		Removed: []relational.Fact{relational.F("s", value.Int(3))},
	}
	b := marshal(t, FromDelta(dl))
	var got Delta
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	back := got.ToDelta()
	if len(back.Added) != 1 || !back.Added[0].Equal(dl.Added[0]) ||
		len(back.Removed) != 1 || !back.Removed[0].Equal(dl.Removed[0]) {
		t.Errorf("delta round-tripped to %v, want %v", back, dl)
	}
}

func TestConstraintSetRoundTrip(t *testing.T) {
	src := `
		course(Id, Code) -> student(Id, Name).
		emp(Id, Nm, Sal) -> Sal > 100.
		r(X, Y), r(X, Z) -> Y = Z.
		r(X, Y), isnull(X) -> false.
		p(X), q(X) -> false.
		t(X, Y) -> u(X) | Y >= X + 1.
		emp(Id, Nm, Sal) -> Nm = "Ann" | Nm = "Two Words".
	`
	set, err := parser.Constraints(src)
	if err != nil {
		t.Fatal(err)
	}
	w := FromConstraints(set)

	// JSON round trip preserves the source verbatim.
	var got ConstraintSet
	if err := json.Unmarshal(marshal(t, w), &got); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("ConstraintSet changed across JSON: %+v vs %+v", got, w)
	}

	// The canonical rendering reparses, and is a fixpoint of
	// render-parse-render.
	set2, err := got.ToSet()
	if err != nil {
		t.Fatalf("canonical rendering does not reparse: %v\n%s", err, got.Source)
	}
	if len(set2.ICs) != len(set.ICs) || len(set2.NNCs) != len(set.NNCs) {
		t.Fatalf("reparsed set has %d ICs / %d NNCs, want %d / %d",
			len(set2.ICs), len(set2.NNCs), len(set.ICs), len(set.NNCs))
	}
	if again := FromConstraints(set2); again != w {
		t.Errorf("rendering is not a fixpoint:\n%s\nvs\n%s", w.Source, again.Source)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	for _, src := range []string{
		"q(X) :- course(X, Code), not student(X, Code).\nq(X) :- course(X, 15).",
		"q() :- r(a, X), X > 2.",
	} {
		q, err := parser.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		w := FromQuery(q)
		var got Query
		if err := json.Unmarshal(marshal(t, w), &got); err != nil {
			t.Fatal(err)
		}
		q2, err := got.ToQuery()
		if err != nil {
			t.Fatalf("canonical query does not reparse: %v\n%s", err, got.Source)
		}
		if again := FromQuery(q2); again != w {
			t.Errorf("query rendering is not a fixpoint: %q vs %q", w.Source, again.Source)
		}
	}
}

func TestAnswerRoundTrip(t *testing.T) {
	cases := []session.Answer{
		{
			Tuples: []relational.Tuple{
				{value.Str("a"), value.Null()},
				{value.Int(3), value.Str("b")},
			},
			NumRepairs:     4,
			StatesExplored: 17,
		},
		{Boolean: true, NumRepairs: 1, ShortCircuited: true},
	}
	for _, a := range cases {
		b := marshal(t, FromAnswer(a))
		var got Answer
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.ToAnswer(), a) {
			t.Errorf("answer round-tripped via %s to %+v, want %+v", b, got.ToAnswer(), a)
		}
	}
}

func TestApplyResultRoundTrip(t *testing.T) {
	r := session.ApplyResult{
		Applied: relational.Delta{
			Added: []relational.Fact{relational.F("r", value.Str("a"), value.Str("d"))},
		},
		ConstraintRelevant: true,
		RepairsSurvived:    2,
		RepairsInvalidated: 1,
		Reenumerated:       true,
		QueriesRefreshed:   1,
		QueriesSkipped:     3,
	}
	b := marshal(t, FromApplyResult(r))
	var got ApplyResult
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ToApplyResult(), r) {
		t.Errorf("apply result round-tripped via %s to %+v, want %+v", b, got.ToApplyResult(), r)
	}
}

// TestWireAgainstSession drives a real session and checks that its answers
// and apply results survive the wire without changing what they say.
func TestWireAgainstSession(t *testing.T) {
	d := parser.MustInstance(`r(a, b). r(a, c). s(e, f).`)
	set, err := parser.Constraints(`r(X, Y), r(X, Z) -> Y = Z. s(U, V) -> r(V, W).`)
	if err != nil {
		t.Fatal(err)
	}
	q := parser.MustQuery(`q(X) :- r(a, X).`)

	s := session.New(d, set, session.NewOptions())
	ans, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	var gotAns Answer
	if err := json.Unmarshal(marshal(t, FromAnswer(ans)), &gotAns); err != nil {
		t.Fatal(err)
	}
	back := gotAns.ToAnswer()
	if len(back.Tuples) != len(ans.Tuples) || back.NumRepairs != ans.NumRepairs {
		t.Errorf("session answer changed on the wire: %+v vs %+v", back, ans)
	}
	for i := range back.Tuples {
		if !back.Tuples[i].Equal(ans.Tuples[i]) {
			t.Errorf("tuple %d changed on the wire: %v vs %v", i, back.Tuples[i], ans.Tuples[i])
		}
	}

	res, err := s.Apply(relational.Delta{
		Added: []relational.Fact{relational.F("r", value.Str("f"), value.Str("g"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotRes ApplyResult
	if err := json.Unmarshal(marshal(t, FromApplyResult(res)), &gotRes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes.ToApplyResult(), res) {
		t.Errorf("apply result changed on the wire: %+v vs %+v", gotRes.ToApplyResult(), res)
	}
}
