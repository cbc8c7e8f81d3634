package session

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/stable"
	"repro/internal/value"
)

// cautiousCase is one constraint set with the relations its random
// instances draw from. pass names the relation no constraint mentions, so
// updates to it rebase the translation instead of dropping it.
type cautiousCase struct {
	name    string
	ics     string
	rels    []relational.RelKey
	pass    string
	queries []string
}

var cautiousCases = []cautiousCase{
	{
		name:    "ric",
		ics:     `course(Id, Code) -> student(Id, Name).`,
		rels:    []relational.RelKey{{Pred: "course", Arity: 2}, {Pred: "student", Arity: 2}, {Pred: "u", Arity: 2}},
		pass:    "u",
		queries: []string{`q(Id) :- student(Id, Name).`, `q(Id, Code) :- course(Id, Code).`, `q :- course(a, b).`, `q(X) :- course(X, Y), u(Y, Z).`},
	},
	{
		name: "key+ric",
		ics: `
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
		`,
		rels:    []relational.RelKey{{Pred: "r", Arity: 2}, {Pred: "s", Arity: 2}, {Pred: "u", Arity: 2}},
		pass:    "u",
		queries: []string{`q(V) :- s(U, V).`, `q(X, Y) :- r(X, Y).`, `q(U) :- s(U, V), r(V, W).`, `q :- r(a, b).`, `q(X) :- r(X, Y), u(Y, Z).`},
	},
	{
		name: "disjunctive",
		ics: `
			p(X) -> q(X) | t(X).
			q(X), t(X) -> false.
		`,
		rels:    []relational.RelKey{{Pred: "p", Arity: 1}, {Pred: "q", Arity: 1}, {Pred: "t", Arity: 1}, {Pred: "u", Arity: 2}},
		pass:    "u",
		queries: []string{`q(X) :- p(X), not t(X).`, `q(X) :- q(X).`, `q :- t(a).`, `q(X) :- t(X), not u(X, X).`},
	},
	{
		name: "nnc+ric",
		ics: `
			r(X, Y), isnull(X) -> false.
			s(U, V) -> r(V, W).
		`,
		rels:    []relational.RelKey{{Pred: "r", Arity: 2}, {Pred: "s", Arity: 2}, {Pred: "u", Arity: 2}},
		pass:    "u",
		queries: []string{`q(X) :- r(X, Y).`, `q(V) :- s(U, V), not r(V, V).`, `q :- s(a, b).`},
	},
	{
		// Two keys: a query joining r and s spans two conflict components.
		name: "two keys",
		ics: `
			r(X, Y), r(X, Z) -> Y = Z.
			s(X, Y), s(X, Z) -> Y = Z.
		`,
		rels:    []relational.RelKey{{Pred: "r", Arity: 2}, {Pred: "s", Arity: 2}, {Pred: "u", Arity: 2}},
		pass:    "u",
		queries: []string{`q(X, Z) :- r(X, Y), s(Z, Y).`, `q :- r(X, Y), s(Y, X).`, `q(X) :- r(X, Y), not s(Y, X).`, `q(X) :- s(X, Y), u(X, Z).`},
	},
	{
		name: "fd+fk",
		ics: `
			dept(D, M1), dept(D, M2) -> M1 = M2.
			emp(E, D) -> dept(D, M).
			dept(D, M), isnull(D) -> false.
		`,
		rels:    []relational.RelKey{{Pred: "dept", Arity: 2}, {Pred: "emp", Arity: 2}, {Pred: "proj", Arity: 2}},
		pass:    "proj",
		queries: []string{`q(M) :- emp(E, D), dept(D, M).`, `q(E, P) :- emp(E, D), proj(E, P).`, `q(E) :- emp(E, D), not dept(D, a).`, `q :- dept(a, b).`},
	},
}

var cautiousVals = []value.V{value.Str("a"), value.Str("b"), value.Str("c"), value.Null(), value.Int(21)}

func randomFact(rng *rand.Rand, rels []relational.RelKey) relational.Fact {
	rk := rels[rng.Intn(len(rels))]
	args := make([]value.V, rk.Arity)
	for i := range args {
		args[i] = cautiousVals[rng.Intn(len(cautiousVals))]
	}
	return relational.F(rk.Pred, args...)
}

func randomInstance(rng *rand.Rand, rels []relational.RelKey) *relational.Instance {
	d := relational.NewInstance()
	for n := 2 + rng.Intn(6); n > 0; n-- {
		d.Insert(randomFact(rng, rels))
	}
	return d
}

// streamCautious is the reference the per-component answer is checked
// against: the running intersection of the answer atoms over the whole
// stable.EnumerateCtx stream of Π(D, IC) ∪ Π(q), and the number of
// distinct ModelReader deltas as the repair count.
func streamCautious(d *relational.Instance, set *constraint.Set, variant repairprog.Variant, q *query.Q) (Answer, error) {
	tr, err := repairprog.BuildWith(d, set, repairprog.BuildOptions{Variant: variant, PruneUnconstrained: true})
	if err != nil {
		return Answer{}, err
	}
	gp, err := tr.GroundWithQuery(q)
	if err != nil {
		return Answer{}, err
	}
	reader := tr.NewModelReader(gp)
	repairs := relational.NewDeltaSet()
	var certain map[string]relational.Tuple
	if err := stable.Enumerate(gp, stable.Options{}, func(m stable.Model) bool {
		repairs.Add(reader.Delta(m))
		here := map[string]relational.Tuple{}
		for _, id := range m {
			if f := gp.Atoms[id]; f.Pred == tr.AnswerPred() {
				here[f.Args.Key()] = f.Args
			}
		}
		if certain == nil {
			certain = here
		}
		for k := range certain {
			if _, ok := here[k]; !ok {
				delete(certain, k)
			}
		}
		return true
	}); err != nil {
		return Answer{}, err
	}
	if certain == nil {
		return Answer{}, ErrInconsistentUnrepairable
	}
	ans := Answer{NumRepairs: repairs.Len()}
	if q.IsBoolean() {
		_, ans.Boolean = certain[relational.Tuple{}.Key()]
		if !ans.Boolean {
			// A refuted boolean short-circuits and reports one repair.
			ans.NumRepairs, ans.ShortCircuited = 1, true
		}
		return ans, nil
	}
	ans.Tuples = sortedTuples(certain)
	return ans, nil
}

func sameCautious(got, want Answer) error {
	if got.Boolean != want.Boolean || got.ShortCircuited != want.ShortCircuited || got.NumRepairs != want.NumRepairs {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
		return fmt.Errorf("tuples %v, want %v", got.Tuples, want.Tuples)
	}
	return nil
}

// TestCautiousComponentsMatchStream pins the factorized cautious answer —
// core facts plus per-component intersections, the repair count as a
// product over components — to the intersection over the full model
// stream, on a cold session per query and on one warm session answering
// every query from its cached count.
func TestCautiousComponentsMatchStream(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	trials := 0
	for round := 0; round < 25; round++ {
		for _, tc := range cautiousCases {
			set := parser.MustConstraints(tc.ics)
			d := randomInstance(rng, tc.rels)
			for _, variant := range []repairprog.Variant{repairprog.VariantPaper, repairprog.VariantCorrected} {
				opts := NewOptions()
				opts.Engine = EngineProgramCautious
				opts.Variant = variant
				warm := New(d, set, opts)
				for _, src := range tc.queries {
					q := parser.MustQuery(src)
					want, wantErr := streamCautious(d, set, variant, q)
					for _, s := range []*Session{New(d, set, opts), warm} {
						trials++
						got, err := s.Answer(q)
						if wantErr != nil || err != nil {
							if fmt.Sprint(err) != fmt.Sprint(wantErr) {
								t.Fatalf("%s/%v D=%v q=%s: err %v, reference %v", tc.name, variant, d, src, err, wantErr)
							}
							continue
						}
						if err := sameCautious(got, want); err != nil {
							t.Fatalf("%s/%v D=%v q=%s: %v", tc.name, variant, d, src, err)
						}
					}
				}
			}
		}
	}
	if trials < 1000 {
		t.Fatalf("only %d trials", trials)
	}
}

// TestCautiousCountAcrossApplies answers every query after every op of a
// random Δ stream — constraint-relevant applies, which keep the
// translation but drop its repair count, and passthrough applies, which
// keep both — and compares with a fresh session, so a count kept past a
// change of the program, or a grounding the queued Δs moved wrongly, shows
// up. The streams churn enough that the maintained grounding's dead atoms
// come to outnumber its live ones, which grounds it again from scratch;
// that shows as a drop in its atom count. A final run of passthrough
// inserts re-anchors the head, which must keep the count.
func TestCautiousCountAcrossApplies(t *testing.T) {
	rng := rand.New(rand.NewSource(1806))
	numAtoms := func(tr *repairprog.Translation) int {
		gp, err := tr.BaseGrounding()
		if err != nil {
			t.Fatal(err)
		}
		return gp.NumAtoms()
	}
	rebuilds := 0
	for _, tc := range cautiousCases {
		set := parser.MustConstraints(tc.ics)
		var queries []*query.Q
		for _, src := range tc.queries {
			queries = append(queries, parser.MustQuery(src))
		}
		for _, variant := range []repairprog.Variant{repairprog.VariantPaper, repairprog.VariantCorrected} {
			opts := NewOptions()
			opts.Engine = EngineProgramCautious
			opts.Variant = variant
			s := New(randomInstance(rng, tc.rels), set, opts)
			cb := s.eng.(*cautiousBackend)
			check := func(step int) {
				t.Helper()
				fresh := New(relational.NewInstance(s.Current().Facts()...), set, opts)
				for _, q := range queries {
					want, wantErr := fresh.Answer(q)
					got, err := s.Answer(q)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s/%v step %d q=%s: err %v, fresh %v", tc.name, variant, step, q, err, wantErr)
					}
					if err == nil {
						if err := sameCautious(got, want); err != nil {
							t.Fatalf("%s/%v step %d D=%v q=%s: %v", tc.name, variant, step, s.Current(), q, err)
						}
					}
				}
			}
			check(-1)
			for step := 0; step < 30; step++ {
				// Deletes keep the instance small: a component's model
				// count grows steeply with the facts of one key.
				f := randomFact(rng, tc.rels)
				if facts := s.Current().Facts(); len(facts) > 0 && (len(facts) >= 8 || rng.Intn(3) == 0) {
					f = facts[rng.Intn(len(facts))]
				}
				var dl relational.Delta
				if s.Current().Has(f) {
					dl.Removed = []relational.Fact{f}
				} else {
					dl.Added = []relational.Fact{f}
				}
				tr, repairs, atoms := cb.tr, cb.repairs, numAtoms(cb.tr)
				if _, err := s.Apply(dl); err != nil {
					t.Fatal(err)
				}
				if cb.tr != tr {
					t.Fatalf("%s/%v step %d: apply %v dropped the translation", tc.name, variant, step, dl)
				}
				if f.Pred == tc.pass && cb.repairs != repairs {
					t.Fatalf("%s/%v step %d: passthrough apply %v dropped the count", tc.name, variant, step, dl)
				}
				if f.Pred != tc.pass && cb.repairs != 0 {
					t.Fatalf("%s/%v step %d: constraint-relevant apply %v kept the count", tc.name, variant, step, dl)
				}
				check(step)
				if numAtoms(cb.tr) < atoms {
					rebuilds++
				}
			}

			// Re-anchoring keeps the translation and its count.
			if _, err := s.Answer(queries[0]); err != nil {
				continue // no stable model: nothing is counted
			}
			tr, repairs, anchor := cb.tr, cb.repairs, s.head.Anchor()
			if repairs == 0 {
				t.Fatalf("%s/%v: no repair count cached after an answer", tc.name, variant)
			}
			for i := 0; i <= rebaseThreshold; i++ {
				f := relational.F(tc.pass, value.Str(fmt.Sprintf("k%d", i)), value.Str("v"))
				if _, err := s.Apply(relational.Delta{Added: []relational.Fact{f}}); err != nil {
					t.Fatal(err)
				}
			}
			if s.head.Anchor() == anchor {
				t.Fatalf("%s/%v: head never re-anchored", tc.name, variant)
			}
			if cb.tr != tr || cb.repairs != repairs {
				t.Fatalf("%s/%v: re-anchoring dropped the translation or its count", tc.name, variant)
			}
			check(30)
		}
	}
	if rebuilds == 0 {
		t.Fatal("no stream grounded its translation again from scratch")
	}
	t.Logf("%d groundings rebuilt by the dead-atom rule", rebuilds)
}
