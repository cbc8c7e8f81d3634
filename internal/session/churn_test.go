package session_test

import (
	"fmt"
	"testing"

	"repro/internal/nullsem"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/value"
)

// churnFact returns the fact of insert/undo pair i. Pairs cycle through a
// conflicting key insert, a passthrough insert, a consistent key insert and
// (with a foreign key) a dangling reference, each on a constant no earlier
// pair used; every 25th pair instead re-inserts the fact of the pair 24
// before it, a key its overlays have tombstoned and possibly compacted away.
func churnFact(i int, foreignKey bool) relational.Fact {
	if i%25 == 24 {
		i -= 24
	}
	c := value.Str(fmt.Sprintf("n%d", i))
	switch i % 4 {
	case 0:
		return relational.F("r", value.Str("a"), c)
	case 1:
		return relational.F("t", c, value.Str("a"))
	case 3:
		if foreignKey {
			return relational.F("s", c, c)
		}
	}
	return relational.F("r", c, value.Str("b"))
}

// TestSessionEqualsScratchUnderChurn runs 300 insert/undo pairs over a
// constraint relation and the passthrough relation t, so the head, every
// cached repair and every search state are overlays whose deltas keep
// tombstoning and compacting while the net drift stays at zero or one. At
// every fifth apply, alternately after an insert and after its undo, the
// session's violations, repairs, certain and possible answers and
// standing-query diffs must equal a scratch computation.
func TestSessionEqualsScratchUnderChurn(t *testing.T) {
	const pairs = 300
	keyRICNNC := `
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
		r(X, Y), isnull(X) -> false.
	`
	cases := []struct {
		engine     session.Engine
		ics        string
		foreignKey bool
	}{
		{session.EngineSearch, keyRICNNC, true},
		{session.EngineProgram, keyRICNNC, true},
		{session.EngineProgramCautious, keyRICNNC, true},
		{session.EngineDirect, `r(X, Y), r(X, Z) -> Y = Z.`, false},
	}
	queries := []*query.Q{
		parser.MustQuery(`q(X, Y) :- r(X, Y).`),
		parser.MustQuery(`q(X) :- r(X, Y), t(X, Z).`),
		parser.MustQuery(`q :- r(a, b).`),
	}
	for _, tc := range cases {
		t.Run(tc.engine.String(), func(t *testing.T) {
			set := parser.MustConstraints(tc.ics)
			db := refDB{}
			parser.MustInstance(`r(a, b). r(a, c). r(d, e). s(e, d). t(a, b). t(d, a).`).ForEach(func(f relational.Fact) bool {
				db[f.Key()] = f
				return true
			})
			opts := session.NewOptions()
			opts.Engine = tc.engine
			s := session.New(db.instance(), set, opts)

			// replayed holds each non-boolean standing query's answers as
			// its Subscribe diffs leave them.
			var prepared []*session.Prepared
			replayed := make([]map[string]bool, len(queries))
			for qi, q := range queries {
				p, err := s.Prepare(q)
				if err != nil {
					t.Fatalf("Prepare(%s): %v", q, err)
				}
				prepared = append(prepared, p)
				replayed[qi] = map[string]bool{}
				for _, tu := range p.Answers() {
					replayed[qi][tu.Key()] = true
				}
				cur := replayed[qi]
				p.Subscribe(func(u session.QueryUpdate) {
					for _, tu := range u.Removed {
						if !cur[tu.Key()] {
							t.Errorf("query %s: removed %v, not an answer", q, tu)
						}
						delete(cur, tu.Key())
					}
					for _, tu := range u.Added {
						if cur[tu.Key()] {
							t.Errorf("query %s: added %v, already an answer", q, tu)
						}
						cur[tu.Key()] = true
					}
				})
			}

			for step := 0; step < 2*pairs; step++ {
				f := churnFact(step/2, tc.foreignKey)
				dl := relational.Delta{Added: []relational.Fact{f}}
				if step%2 == 1 {
					dl = relational.Delta{Removed: []relational.Fact{f}}
				}
				db.apply(dl)
				if _, err := s.Apply(dl); err != nil {
					t.Fatalf("step %d: Apply(%s): %v", step, dl, err)
				}
				if step%5 != 0 {
					continue
				}
				scratch := db.instance()
				label := fmt.Sprintf("step %d (%s)", step, dl)

				report := nullsem.Check(scratch, set, nullsem.NullAware)
				if got, want := fmt.Sprint(violationKeys(s.Violations())), fmt.Sprint(violationKeys(report.IC)); got != want {
					t.Fatalf("%s: violations %s, scratch %s", label, got, want)
				}
				got, err := s.Repairs()
				if err != nil {
					t.Fatalf("%s: Repairs: %v", label, err)
				}
				want, err := session.New(scratch, set, opts).Repairs()
				if err != nil {
					t.Fatalf("%s: scratch Repairs: %v", label, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d repairs, scratch %d", label, len(got), len(want))
				}
				for i := range want {
					if got[i].Key() != want[i].Key() {
						t.Fatalf("%s: repair %d is %s, scratch %s", label, i, got[i], want[i])
					}
				}

				for qi, q := range queries {
					wantA, err := session.New(scratch, set, opts).Answer(q)
					if err != nil {
						t.Fatalf("%s: scratch Answer(%s): %v", label, q, err)
					}
					gotA, err := s.Answer(q)
					if err != nil {
						t.Fatalf("%s: Answer(%s): %v", label, q, err)
					}
					if !answersEqual(gotA, wantA) {
						t.Fatalf("%s: %s answers %+v, scratch %+v", label, q, gotA, wantA)
					}
					p := prepared[qi]
					if q.IsBoolean() {
						if p.Boolean() != wantA.Boolean {
							t.Fatalf("%s: %s standing verdict %v, scratch %v", label, q, p.Boolean(), wantA.Boolean)
						}
					} else {
						if tuplesKey(p.Answers()) != tuplesKey(wantA.Tuples) {
							t.Fatalf("%s: %s standing answers %v, scratch %v", label, q, p.Answers(), wantA.Tuples)
						}
						if len(replayed[qi]) != len(wantA.Tuples) {
							t.Fatalf("%s: %s diffs replay to %d answers, scratch %d", label, q, len(replayed[qi]), len(wantA.Tuples))
						}
						for _, tu := range wantA.Tuples {
							if !replayed[qi][tu.Key()] {
								t.Fatalf("%s: %s diffs replay without %v", label, q, tu)
							}
						}
					}
					if q.IsBoolean() {
						continue
					}
					wantP, err := session.New(scratch, set, opts).Possible(q)
					if err != nil {
						t.Fatalf("%s: scratch Possible(%s): %v", label, q, err)
					}
					gotP, err := s.Possible(q)
					if err != nil {
						t.Fatalf("%s: Possible(%s): %v", label, q, err)
					}
					if tuplesKey(gotP) != tuplesKey(wantP) {
						t.Fatalf("%s: %s possible %v, scratch %v", label, q, gotP, wantP)
					}
				}
			}
		})
	}
}
