package session_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/nullsem"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/value"
)

// The differential contract: after any chain of Apply calls, a session's
// maintained violations, repair set, one-shot answers and standing-query
// answers are byte-identical to a fresh scratch computation (a throwaway
// session.New(...).Answer et al.) on an independently built copy of the
// mutated instance — for all three engines, under -race.

// diffCase is one (IC set, query battery) scenario. The t relation is
// deliberately unconstrained so random updates exercise the
// constraint-irrelevant fast path (repairs rebased, not re-enumerated).
type diffCase struct {
	name    string
	ics     string
	queries []string
	// seedN/steps size the run; the cyclic-RIC case stays small because
	// its model count grows steeply with the instance (and the race
	// detector multiplies every step).
	seedN, steps int
}

var diffCases = []diffCase{
	{
		name: "key+ric+nnc",
		ics: `
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
			r(X, Y), isnull(X) -> false.
		`,
		queries: []string{
			`q(V) :- s(U, V).`,
			`q(X, Y) :- r(X, Y).`,
			`q :- r(a, b).`,
			`q(X) :- r(X, Y), t(X, Z).`,
		},
		seedN: 6, steps: 7,
	},
	{
		name: "fd+denial",
		ics: `
			s(X, Y), s(X, Z) -> Y = Z.
			r(X, X) -> false.
		`,
		queries: []string{
			`q(Y) :- s(X, Y).`,
			`q :- s(a, b).`,
			`q(X) :- t(X, Y), not r(X, Y).`,
		},
		seedN: 6, steps: 7,
	},
	{
		name: "ric-cycle",
		ics: `
			r(X, Y) -> s(Y, Z).
			s(X, Y) -> r(Y, Z).
		`,
		queries: []string{
			`q(X) :- r(X, Y).`,
			`q :- s(b, a).`,
		},
		seedN: 4, steps: 4,
	},
}

// refDB is the scratch-side mirror: a plain fact set rebuilt into a fresh
// instance at every step, sharing nothing with the session.
type refDB map[string]relational.Fact

func (r refDB) apply(dl relational.Delta) {
	for _, f := range dl.Removed {
		delete(r, f.Key())
	}
	for _, f := range dl.Added {
		r[f.Key()] = f
	}
}

func (r refDB) instance() *relational.Instance {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := relational.NewInstance()
	for _, k := range keys {
		d.Insert(r[k])
	}
	return d
}

// factPool is the closed universe updates draw from.
func factPool() []relational.Fact {
	vals := []value.V{value.Str("a"), value.Str("b"), value.Str("c"), value.Null()}
	var pool []relational.Fact
	for _, p := range []string{"r", "s", "t"} {
		for _, x := range vals {
			for _, y := range vals {
				pool = append(pool, relational.F(p, x, y))
			}
		}
	}
	return pool
}

func randomDelta(rng *rand.Rand, pool []relational.Fact, have refDB) relational.Delta {
	var dl relational.Delta
	used := map[string]bool{}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		f := pool[rng.Intn(len(pool))]
		if used[f.Key()] {
			continue
		}
		used[f.Key()] = true
		if _, present := have[f.Key()]; present && rng.Intn(2) == 0 {
			dl.Removed = append(dl.Removed, f)
		} else {
			dl.Added = append(dl.Added, f)
		}
	}
	relational.SortFacts(dl.Removed)
	relational.SortFacts(dl.Added)
	return dl
}

func seedDB(rng *rand.Rand, pool []relational.Fact, n int) refDB {
	db := refDB{}
	for len(db) < n {
		f := pool[rng.Intn(len(pool))]
		db[f.Key()] = f
	}
	return db
}

func violationKeys(vs []nullsem.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

func tuplesKey(ts []relational.Tuple) string {
	s := ""
	for _, t := range ts {
		s += t.Key() + ";"
	}
	return s
}

func answersEqual(a, b session.Answer) bool {
	return a.Boolean == b.Boolean && tuplesKey(a.Tuples) == tuplesKey(b.Tuples)
}

func TestSessionEqualsScratchDifferential(t *testing.T) {
	engines := []session.Engine{session.EngineSearch, session.EngineProgram, session.EngineProgramCautious}
	pool := factPool()
	for _, tc := range diffCases {
		set := parser.MustConstraints(tc.ics)
		var queries []*query.Q
		for _, src := range tc.queries {
			queries = append(queries, parser.MustQuery(src))
		}
		for _, engine := range engines {
			// The "workers" labels name two independent random Δ streams:
			// each stream's seed derives from its label.
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", tc.name, engine, workers)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1009*workers) + int64(len(tc.name))))
					db := seedDB(rng, pool, tc.seedN)

					opts := session.NewOptions()
					opts.Engine = engine

					s := session.New(db.instance(), set, opts)
					var prepared []*session.Prepared
					for _, q := range queries {
						p, err := s.Prepare(q)
						if err != nil {
							t.Fatalf("Prepare(%s): %v", q, err)
						}
						prepared = append(prepared, p)
					}

					for step := 0; step < tc.steps; step++ {
						dl := randomDelta(rng, pool, db)
						db.apply(dl)
						if _, err := s.Apply(dl); err != nil {
							t.Fatalf("step %d: Apply(%s): %v", step, dl, err)
						}
						scratch := db.instance()

						// Consistency and maintained violations.
						report := nullsem.Check(scratch, set, nullsem.NullAware)
						if got, want := s.Consistent(), report.Consistent(); got != want {
							t.Fatalf("step %d: Consistent() = %v, scratch %v", step, got, want)
						}
						gotV := violationKeys(s.Violations())
						wantV := violationKeys(report.IC)
						if fmt.Sprint(gotV) != fmt.Sprint(wantV) {
							t.Fatalf("step %d: maintained violations %v != scratch %v", step, gotV, wantV)
						}

						// Repair set, byte-identical in canonical order.
						sessionRepairs, err := s.Repairs()
						if err != nil {
							t.Fatalf("step %d: session Repairs: %v", step, err)
						}
						scratchRepairs, err := session.New(scratch, set, opts).Repairs()
						if err != nil {
							t.Fatalf("step %d: scratch Repairs: %v", step, err)
						}
						if len(sessionRepairs) != len(scratchRepairs) {
							t.Fatalf("step %d: %d session repairs, %d scratch", step, len(sessionRepairs), len(scratchRepairs))
						}
						for i := range sessionRepairs {
							if sessionRepairs[i].Key() != scratchRepairs[i].Key() {
								t.Fatalf("step %d: repair %d differs\nsession: %s\nscratch: %s",
									step, i, sessionRepairs[i], scratchRepairs[i])
							}
						}

						// One-shot answers and maintained standing answers.
						for qi, q := range queries {
							want, err := session.New(scratch, set, opts).Answer(q)
							if err != nil {
								t.Fatalf("step %d: scratch Answer(%s): %v", step, q, err)
							}
							got, err := s.Answer(q)
							if err != nil {
								t.Fatalf("step %d: session Answer(%s): %v", step, q, err)
							}
							if !answersEqual(got, want) {
								t.Fatalf("step %d query %s:\nsession %+v\nscratch %+v", step, q, got, want)
							}
							p := prepared[qi]
							if q.IsBoolean() {
								if p.Boolean() != want.Boolean {
									t.Fatalf("step %d query %s: prepared Boolean %v, scratch %v", step, q, p.Boolean(), want.Boolean)
								}
							} else if tuplesKey(p.Answers()) != tuplesKey(want.Tuples) {
								t.Fatalf("step %d query %s: prepared %v, scratch %v", step, q, p.Answers(), want.Tuples)
							}
						}

						// Brave answers ride the same caches.
						bq := queries[0]
						wantP, err := session.New(scratch, set, opts).Possible(bq)
						if err != nil {
							t.Fatalf("step %d: scratch Possible: %v", step, err)
						}
						gotP, err := s.Possible(bq)
						if err != nil {
							t.Fatalf("step %d: session Possible: %v", step, err)
						}
						if tuplesKey(gotP) != tuplesKey(wantP) {
							t.Fatalf("step %d: possible %v != scratch %v", step, gotP, wantP)
						}
					}
				})
			}
		}
	}
}

// TestSessionSubscribeMatchesScratchDiff pins the Subscribe contract: the
// pushed diffs, replayed over the initial answers, always equal the
// scratch answers on the mutated instance.
func TestSessionSubscribeMatchesScratchDiff(t *testing.T) {
	set := parser.MustConstraints(`
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
	`)
	q := parser.MustQuery(`q(V) :- s(U, V).`)
	pool := factPool()
	rng := rand.New(rand.NewSource(42))
	db := seedDB(rng, pool, 6)

	s := session.New(db.instance(), set, session.NewOptions())
	p, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	current := map[string]relational.Tuple{}
	for _, tu := range p.Answers() {
		current[tu.Key()] = tu
	}
	p.Subscribe(func(u session.QueryUpdate) {
		for _, tu := range u.Removed {
			if _, ok := current[tu.Key()]; !ok {
				t.Errorf("removed tuple %v was not an answer", tu)
			}
			delete(current, tu.Key())
		}
		for _, tu := range u.Added {
			if _, ok := current[tu.Key()]; ok {
				t.Errorf("added tuple %v already an answer", tu)
			}
			current[tu.Key()] = tu
		}
	})

	for step := 0; step < 10; step++ {
		dl := randomDelta(rng, pool, db)
		db.apply(dl)
		if _, err := s.Apply(dl); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := session.New(db.instance(), set, session.NewOptions()).Answer(q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		wantKeys := map[string]bool{}
		for _, tu := range want.Tuples {
			wantKeys[tu.Key()] = true
		}
		if len(wantKeys) != len(current) {
			t.Fatalf("step %d: replayed answers %v, scratch %v", step, current, want.Tuples)
		}
		for k := range wantKeys {
			if _, ok := current[k]; !ok {
				t.Fatalf("step %d: replayed answers missing %s", step, k)
			}
		}
	}
}
