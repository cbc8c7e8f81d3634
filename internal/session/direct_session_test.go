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
