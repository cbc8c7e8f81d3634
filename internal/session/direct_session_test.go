package session

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/direct"
	"repro/internal/fdgen"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/value"
)

func tuplesEqual(a, b []relational.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestDirectSessionIncremental pins the O(|Δ|) maintenance contract: a
// long-lived EngineDirect session fed a stream of deltas must answer
// exactly like a direct engine rebuilt from scratch on the final instance,
// and it must get there incrementally — InitialFacts frozen after New,
// DeltaFacts growing with the stream, never a reclassification.
func TestDirectSessionIncremental(t *testing.T) {
	ctx := context.Background()
	queries := []*query.Q{
		parser.MustQuery(`q(K,V) :- r0(K,V,W).`),
		parser.MustQuery(`q(K) :- r0(K,v1,W).`),
		parser.MustQuery(`q :- r0(K,v0,W).`),
	}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := fdgen.Config{
				Rows:       24,
				GroupSize:  3,
				Violations: 2 + int(seed%2),
				Classes:    2,
				NullRate:   0.1,
				Seed:       seed,
			}
			d, set := fdgen.Generate(cfg)
			opts := NewOptions()
			opts.Engine = EngineDirect
			s := New(d.Clone(), set, opts)

			// Force the classification to exist before the stream so the
			// stats prove updates are absorbed, not rebuilt.
			if _, err := s.AnswerCtx(ctx, queries[0]); err != nil {
				t.Fatalf("initial answer: %v", err)
			}
			initial := s.DirectStats().InitialFacts
			if initial == 0 {
				t.Fatalf("classification not built")
			}

			deltas := fdgen.Updates(cfg, 12, 3)
			applied := 0
			for di, dl := range deltas {
				if _, err := s.ApplyCtx(ctx, dl); err != nil {
					t.Fatalf("apply %d: %v", di, err)
				}
				applied += len(dl.Removed) + len(dl.Added)
				st := s.DirectStats()
				if st.InitialFacts != initial {
					t.Fatalf("apply %d: classification rebuilt (InitialFacts %d -> %d)",
						di, initial, st.InitialFacts)
				}
				if st.DeltaFacts > applied {
					t.Fatalf("apply %d: DeltaFacts %d exceeds delta stream size %d",
						di, st.DeltaFacts, applied)
				}

				scratch, err := direct.New(s.head.Current(), set)
				if err != nil {
					t.Fatalf("apply %d: scratch rebuild: %v", di, err)
				}
				if got, want := s.eng.(*directBackend).dir.NumRepairs(), scratch.NumRepairs(); got != want {
					t.Fatalf("apply %d: NumRepairs session=%d scratch=%d", di, got, want)
				}
				for qi, q := range queries {
					got, err := s.AnswerCtx(ctx, q)
					if err != nil {
						t.Fatalf("apply %d q%d session: %v", di, qi, err)
					}
					want, err := scratch.CertainCtx(ctx, s.head.Current(), q)
					if err != nil {
						t.Fatalf("apply %d q%d scratch: %v", di, qi, err)
					}
					if q.IsBoolean() {
						if got.Boolean != want.Boolean {
							t.Fatalf("apply %d q%d: boolean session=%v scratch=%v",
								di, qi, got.Boolean, want.Boolean)
						}
					} else if !tuplesEqual(got.Tuples, want.Tuples) {
						t.Fatalf("apply %d q%d: session=%v scratch=%v",
							di, qi, got.Tuples, want.Tuples)
					}
					gotPoss, err := s.PossibleCtx(ctx, q)
					if err != nil {
						t.Fatalf("apply %d q%d possible: %v", di, qi, err)
					}
					wantPoss, err := scratch.PossibleCtx(ctx, s.head.Current(), q)
					if err != nil {
						t.Fatalf("apply %d q%d scratch possible: %v", di, qi, err)
					}
					if !tuplesEqual(gotPoss, wantPoss) {
						t.Fatalf("apply %d q%d: possible session=%v scratch=%v",
							di, qi, gotPoss, wantPoss)
					}
				}
			}
			if s.DirectStats().DeltaFacts == 0 {
				t.Fatalf("delta stream was empty — test proves nothing")
			}
		})
	}
}

// TestEngineAutoRouting pins the constraint-class router: FD-only sets
// resolve to the direct engine, everything else falls back to search, and
// classic-mode sessions never take the null-aware classification.
func TestEngineAutoRouting(t *testing.T) {
	fdSet := parser.MustConstraints("r(X, Y1, W1), r(X, Y2, W2) -> Y1 = Y2.")
	denialSet := parser.MustConstraints("p(X), q(X) -> false.")

	opts := NewOptions()
	opts.Engine = EngineAuto
	if s := New(relational.NewInstance(), fdSet, opts); s.opts.Engine != EngineDirect {
		t.Errorf("FD-only auto: got %v, want direct", s.opts.Engine)
	}
	if s := New(relational.NewInstance(), denialSet, opts); s.opts.Engine != EngineSearch {
		t.Errorf("denial auto: got %v, want search", s.opts.Engine)
	}
	classic := opts
	classic.Repair.Mode = repair.Classic
	if s := New(relational.NewInstance(), fdSet, classic); s.opts.Engine != EngineSearch {
		t.Errorf("classic auto: got %v, want search", s.opts.Engine)
	}
}

// TestDirectScopeRejection pins the typed error: forcing EngineDirect on a
// non-FD set fails with *direct.ScopeError at answer time.
func TestDirectScopeRejection(t *testing.T) {
	set := parser.MustConstraints("p(X), q(X) -> false.")
	opts := NewOptions()
	opts.Engine = EngineDirect
	s := New(relational.NewInstance(), set, opts)
	_, err := s.Answer(parser.MustQuery(`q :- p(X).`))
	var scope *direct.ScopeError
	if !errors.As(err, &scope) {
		t.Fatalf("got %v, want *direct.ScopeError", err)
	}
	if _, err := s.Possible(parser.MustQuery(`q :- p(X).`)); !errors.As(err, &scope) {
		t.Fatalf("possible: got %v, want *direct.ScopeError", err)
	}
}

// TestDirectRepairsMatchSearch pins Repairs() on the repair-less engines:
// the classification never materializes repairs, so a direct (or auto,
// resolved to direct) session lists them with the seeded search — same
// content and order as a search session, before and after a
// constraint-relevant Apply that invalidates part of the cache.
func TestDirectRepairsMatchSearch(t *testing.T) {
	src := `
		r(a, b, 1). r(a, c, 2). r(d, e, 3). r(g, h, 5).
		s(x, y).
	`
	set := parser.MustConstraints("r(X, Y1, W1), r(X, Y2, W2) -> Y1 = Y2.")
	// Adding r(d, f, 4) opens a second conflict; deleting r(a, c, 2)
	// resolves the first, so both directions of invalidation are hit.
	update := relational.Delta{
		Added:   []relational.Fact{relational.F("r", str("d"), str("f"), value.Int(4))},
		Removed: []relational.Fact{relational.F("r", str("a"), str("c"), value.Int(2))},
	}
	same := func(step string, eng Engine, got, want []*relational.Instance) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s, %v: %d repairs, search %d", step, eng, len(got), len(want))
		}
		for i := range want {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("%s, %v: repair %d differs\ngot:    %s\nsearch: %s", step, eng, i, got[i], want[i])
			}
		}
	}
	for _, eng := range []Engine{EngineDirect, EngineAuto} {
		opts := NewOptions()
		opts.Engine = eng
		s := New(parser.MustInstance(src), set, opts)
		if _, ok := s.eng.(*directBackend); !ok {
			t.Fatalf("%v: session runs %T, want the direct backend", eng, s.eng)
		}
		ref := New(parser.MustInstance(src), set, NewOptions())

		got, err := s.Repairs()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Repairs()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 2 {
			t.Fatalf("fixture has %d repairs, want 2", len(want))
		}
		same("before apply", eng, got, want)

		res, err := s.Apply(update)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ConstraintRelevant || res.RepairsInvalidated == 0 {
			t.Fatalf("%v: apply %+v, want a relevant update invalidating cached repairs", eng, res)
		}
		if _, err := ref.Apply(update); err != nil {
			t.Fatal(err)
		}
		if got, err = s.Repairs(); err != nil {
			t.Fatal(err)
		}
		if want, err = ref.Repairs(); err != nil {
			t.Fatal(err)
		}
		if len(want) != 2 {
			t.Fatalf("updated fixture has %d repairs, want 2", len(want))
		}
		same("after apply", eng, got, want)
	}
}

// TestDirectViolationCount pins the classification's count against a
// search session, which joins each FD over the instance, and against a
// hand count Σ_g (N_g² − Σ_c n_c²), on create and after every apply. A
// direct session must answer both without building violation lists.
func TestDirectViolationCount(t *testing.T) {
	const fd = `r(K, V1, W1), r(K, V2, W2) -> V1 = V2.`
	type step struct {
		insert, delete string
		want           int
	}
	cases := []struct {
		name, db, ics string
		want          int
		steps         []step
	}{
		{
			// Null key or dependent exempts a row; a null payload does not.
			name: "nulls in key, dependent and payload positions",
			db:   `r(a, b, 1). r(a, c, 2). r(null, b, 3). r(null, c, 4). r(a, null, 5). r(d, b, null). r(d, c, 6).`,
			ics:  fd, want: 4,
			steps: []step{
				{insert: `r(null, d, 7). r(a, null, 8).`, want: 4},
				{insert: `r(d, c, null).`, want: 6},
				{delete: `r(d, b, null).`, want: 2},
			},
		},
		{
			name: "Int(1) against Str(\"1\")",
			db:   `r(a, 1, x). r(a, "1", y). r(b, 1, x). r(b, 1, y).`,
			ics:  fd, want: 2,
			steps: []step{
				{insert: `r(b, "1", z).`, want: 6},
				{delete: `r(a, "1", y).`, want: 4},
			},
		},
		{
			name: "a 3-class group",
			db:   `r(a, b, 1). r(a, b, 2). r(a, c, 3). r(a, d, 4).`,
			ics:  fd, want: 10,
			steps: []step{
				{insert: `r(a, c, 5).`, want: 16},
				{delete: `r(a, b, 1). r(a, b, 2).`, want: 4},
			},
		},
		{
			name: "an empty-key FD",
			db:   `p(a, 1). p(b, 2). p(b, 3). p(null, 4).`,
			ics:  `p(V1, W1), p(V2, W2) -> V1 = V2.`, want: 4,
			steps: []step{
				{insert: `p(c, 5).`, want: 10},
				{delete: `p(a, 1). p(c, 5).`, want: 0},
			},
		},
		{
			name: "two FD relations",
			db:   `r(a, b, 1). r(a, c, 2). s(k, 1). s(k, 2). s(k, 3). s(m, 1).`,
			ics:  fd + "\n" + `s(K, V1), s(K, V2) -> V1 = V2.`, want: 8,
			steps: []step{
				{insert: `s(m, 2). r(e, f, 3).`, want: 10},
				{delete: `r(a, b, 1).`, want: 8},
			},
		},
		{
			name: "applies that empty a class and a group",
			db:   `r(a, b, 1). r(a, c, 2). r(a, c, 3). r(e, f, 1).`,
			ics:  fd, want: 4,
			steps: []step{
				{delete: `r(a, b, 1).`, want: 0},
				{delete: `r(a, c, 2). r(a, c, 3).`, want: 0},
				{insert: `r(a, x, 9). r(a, y, 9).`, want: 2},
				{insert: `r(e, g, 2).`, delete: `r(e, f, 1).`, want: 2},
				{delete: `r(e, g, 2).`, want: 2},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := parser.MustConstraints(tc.ics)
			opts := NewOptions()
			opts.Engine = EngineAuto
			s := New(parser.MustInstance(tc.db), set, opts)
			if _, ok := s.eng.(*directBackend); !ok {
				t.Fatalf("auto resolved to %v, want direct", s.Options().Engine)
			}
			check := func(at string, want int) {
				t.Helper()
				ref := New(s.Current(), set, NewOptions())
				if got := s.ViolationCount(); got != want || got != len(ref.Violations()) {
					t.Fatalf("%s: ViolationCount() = %d, want %d (search session: %d)", at, got, want, len(ref.Violations()))
				}
				if got := s.Consistent(); got != (want == 0) || got != ref.Consistent() {
					t.Fatalf("%s: Consistent() = %v with %d violations (search session: %v)", at, got, want, ref.Consistent())
				}
			}
			check("create", tc.want)
			for i, st := range tc.steps {
				var dl relational.Delta
				if st.insert != "" {
					dl.Added = parser.MustInstance(st.insert).Facts()
				}
				if st.delete != "" {
					dl.Removed = parser.MustInstance(st.delete).Facts()
				}
				if _, err := s.Apply(dl); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("step %d", i), st.want)
			}
			if s.violsOK || s.checkers != nil {
				t.Fatal("the direct session built violation lists")
			}
		})
	}
}

// TestDirectSessionBuildsNoLists pins where a direct session's conflicts
// live: create, Consistent, ViolationCount, both of fd-live's prepares and
// relevant and irrelevant applies read and move the classification alone.
// Violations() builds the lists, which later applies then maintain.
func TestDirectSessionBuildsNoLists(t *testing.T) {
	cfg := fdgen.Config{Rows: 200, GroupSize: 2, Violations: 5, Classes: 2}.Normalized()
	d, set := fdgen.Generate(cfg)
	key := func(grp int) value.V { return value.Str(fmt.Sprintf("k%d_0", grp)) }
	for grp := 0; grp < cfg.Rows/cfg.GroupSize; grp++ {
		d.Insert(relational.F(fdgen.UnconstrainedName, key(grp), value.Str(fmt.Sprintf("w%d", grp))))
	}
	opts := NewOptions()
	opts.Engine = EngineAuto
	s := New(d, set, opts)
	if s.Consistent() || s.ViolationCount() != 2*cfg.Violations {
		t.Fatalf("Consistent() %v with %d violations, want %d", s.Consistent(), s.ViolationCount(), 2*cfg.Violations)
	}
	for _, src := range []string{`qa(K, V) :- r0(K, V, I).`, `qb(K, W) :- s(K, W), r0(K, V, I).`} {
		if _, err := s.Prepare(parser.MustQuery(src)); err != nil {
			t.Fatal(err)
		}
	}
	apply := func(dl relational.Delta) {
		t.Helper()
		if _, err := s.Apply(dl); err != nil {
			t.Fatal(err)
		}
		s.Consistent()
		s.ViolationCount()
	}
	relevant := relational.F(fdgen.RelName(0), key(cfg.Violations), value.Str("other"), value.Int(1000))
	irrelevant := relational.F(fdgen.UnconstrainedName, key(0), value.Str("x"))
	for _, f := range []relational.Fact{relevant, irrelevant} {
		apply(relational.Delta{Added: []relational.Fact{f}})
		apply(relational.Delta{Removed: []relational.Fact{f}})
	}
	if s.violsOK || s.checkers != nil {
		t.Fatal("a direct session built violation lists without a Violations() call")
	}
	if n := len(s.Violations()); n != s.ViolationCount() || !s.violsOK {
		t.Fatalf("Violations() gave %d, ViolationCount() %d", n, s.ViolationCount())
	}
	apply(relational.Delta{Added: []relational.Fact{relevant}})
	// The insert makes a third row, in a class of its own, in a two-row
	// group: 3² − (2² + 1²) = 4 more violations.
	if n, m := len(s.Violations()), s.ViolationCount(); n != m || m != 2*cfg.Violations+4 {
		t.Fatalf("after an apply the maintained lists hold %d violations, the classification %d, want %d", n, m, 2*cfg.Violations+4)
	}
}
