package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/session"
	"repro/internal/value"
)

// TestIncrementalAnswersMatchScratch pins the whole delta-driven stack at
// the CQA level: consistent answers, possible answers, and repair listings
// computed by a session (seeded search, base-anchored patched evaluation)
// must be byte-identical to an unseeded repair.Repairs run combined with
// full per-repair query evaluation. This is the acceptance differential for
// the delta-driven stack.
func TestIncrementalAnswersMatchScratch(t *testing.T) {
	sets := []*constraint.Set{
		parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`),
		parser.MustConstraints(`
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
		`),
		parser.MustConstraints(`
			r(X, Y), isnull(X) -> false.
			s(U, V) -> r(V, W).
		`),
	}
	queries := [][]string{
		{`q(Id) :- student(Id, Name).`, `q :- course(21, c15).`, `q(Id) :- course(Id, Code), not student(Id, Code).`},
		{`q(X, Y) :- r(X, Y).`, `q(U) :- s(U, V), r(V, W).`, `q :- r(a, b).`},
		{`q(V) :- s(U, V), not r(V, V).`, `q(X) :- r(X, Y).`},
	}
	rng := rand.New(rand.NewSource(73))
	vals := []value.V{value.Str("a"), value.Str("b"), value.Null(), value.Int(21)}
	pick := func() value.V { return vals[rng.Intn(len(vals))] }

	for round := 0; round < 12; round++ {
		for si, set := range sets {
			d := relational.NewInstance()
			if si == 0 {
				d.Insert(relational.F("course", value.Int(21), value.Str("c15")))
				for k := 0; k < rng.Intn(3); k++ {
					d.Insert(relational.F("course", pick(), pick()))
				}
				for k := 0; k < rng.Intn(3); k++ {
					d.Insert(relational.F("student", pick(), pick()))
				}
			} else {
				for k := 0; k < 1+rng.Intn(3); k++ {
					d.Insert(relational.F("r", pick(), pick()))
				}
				for k := 0; k < rng.Intn(3); k++ {
					d.Insert(relational.F("s", pick(), pick()))
				}
			}

			// Repair listings: session vs unseeded search.
			res, err := repair.Repairs(d, set, repair.Options{})
			if err != nil {
				t.Fatal(err)
			}
			scratch := res.Repairs
			opts := session.NewOptions()
			inc, err := session.New(d, set, opts).Repairs()
			if err != nil {
				t.Fatal(err)
			}
			if len(inc) != len(scratch) {
				t.Fatalf("round %d set %d: %d repairs incremental, %d scratch\nD=%v",
					round, si, len(inc), len(scratch), d)
			}
			for i := range scratch {
				if inc[i].Key() != scratch[i].Key() {
					t.Fatalf("round %d set %d: repair %d differs\nD=%v", round, si, i, d)
				}
			}

			for _, qsrc := range queries[si] {
				q := parser.MustQuery(qsrc)
				want, err := scratchAnswers(d, set, q, scratch)
				if err != nil {
					t.Fatal(err)
				}
				wantPossible, err := scratchPossible(d, set, q, scratch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := session.New(d, set, opts).Answer(q)
				if err != nil {
					t.Fatalf("round %d set %d q=%q: %v", round, si, qsrc, err)
				}
				if err := sameAnswerTuples(want, got, q); err != nil {
					t.Fatalf("round %d set %d q=%q: %v\nD=%v", round, si, qsrc, err, d)
				}
				gotPossible, err := session.New(d, set, opts).Possible(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotPossible) != len(wantPossible) {
					t.Fatalf("round %d set %d q=%q: possible %d vs %d\nD=%v",
						round, si, qsrc, len(gotPossible), len(wantPossible), d)
				}
				for i := range wantPossible {
					if !gotPossible[i].Equal(wantPossible[i]) {
						t.Fatalf("round %d set %d q=%q: possible tuple %d differs", round, si, qsrc, i)
					}
				}
			}
		}
	}
}

// scratchAnswers is the reference pipeline: full per-repair evaluation with
// query.EvalWith over an unseeded search's repair set.
func scratchAnswers(d *relational.Instance, set *constraint.Set, q *query.Q, repairs []*relational.Instance) (session.Answer, error) {
	if q.IsBoolean() {
		ans := session.Answer{NumRepairs: len(repairs), Boolean: true}
		for _, r := range repairs {
			tuples, err := query.EvalWith(r, q, query.Options{})
			if err != nil {
				return session.Answer{}, err
			}
			if len(tuples) == 0 {
				ans.Boolean = false
			}
		}
		return ans, nil
	}
	certain := map[string]relational.Tuple{}
	for i, r := range repairs {
		tuples, err := query.EvalWith(r, q, query.Options{})
		if err != nil {
			return session.Answer{}, err
		}
		here := map[string]relational.Tuple{}
		for _, t := range tuples {
			here[t.Key()] = t
		}
		if i == 0 {
			certain = here
			continue
		}
		for k := range certain {
			if _, ok := here[k]; !ok {
				delete(certain, k)
			}
		}
	}
	return session.Answer{NumRepairs: len(repairs), Tuples: sortedTuples(certain)}, nil
}

func scratchPossible(d *relational.Instance, set *constraint.Set, q *query.Q, repairs []*relational.Instance) ([]relational.Tuple, error) {
	seen := map[string]relational.Tuple{}
	for _, r := range repairs {
		tuples, err := query.EvalWith(r, q, query.Options{})
		if err != nil {
			return nil, err
		}
		for _, t := range tuples {
			seen[t.Key()] = t
		}
	}
	return sortedTuples(seen), nil
}

// sameAnswerTuples compares the engine-independent parts of an answer:
// boolean verdict and the certain tuples (NumRepairs is skipped — the
// reference never short-circuits, the engine may).
func sameAnswerTuples(want, got session.Answer, q *query.Q) error {
	if q.IsBoolean() {
		if want.Boolean != got.Boolean {
			return fmt.Errorf("boolean answers differ: want %v, got %v", want.Boolean, got.Boolean)
		}
		return nil
	}
	if len(want.Tuples) != len(got.Tuples) {
		return fmt.Errorf("certain tuple counts differ: want %d, got %d", len(want.Tuples), len(got.Tuples))
	}
	for i := range want.Tuples {
		if !want.Tuples[i].Equal(got.Tuples[i]) {
			return fmt.Errorf("certain tuple %d differs: want %v, got %v", i, want.Tuples[i], got.Tuples[i])
		}
	}
	return nil
}

// sortedTuples flattens a keyed tuple set into Compare order.
func sortedTuples(m map[string]relational.Tuple) []relational.Tuple {
	if len(m) == 0 {
		return nil
	}
	out := make([]relational.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
