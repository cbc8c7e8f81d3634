package direct_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/direct"
	"repro/internal/fdgen"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
)

// The direct ≡ search ≡ program contract: on FD-only workloads the three
// engines agree on certain answers (tuples and boolean verdicts), possible
// answers, and — when no engine short-circuited — the exact repair count.
// 45 seeds × 8 queries, random violation structure, null-exempt rows,
// joins, negation, builtins, unions.

// diffQueries builds the query battery for a KeyWidth-1 fdgen workload
// (relations r0[, r1] of arity 3: key, dep, unique id; unconstrained s/2).
func diffQueries(relations int) []*query.Q {
	srcs := []string{
		`q(K,V) :- r0(K,V,W).`,                         // full projection
		`q(K) :- r0(K,V,W).`,                           // key survival
		`q(V) :- r0(K,V,W), s(K,V2).`,                  // join across the constraint boundary
		`q(K,V) :- s(K,V), r0(K,V2,W), not r0(K,V,W).`, // negation on the constrained relation
		`q(K) :- r0(K,v1,W).`,                          // constant dependent
		`q :- r0(K,v0,W), s(K,V).`,                     // boolean join
		`q(K,W) :- r0(K,V,W), W >= 6.`,                 // builtin filter
		"q(K) :- r0(K,v0,W).\nq(K) :- r0(K,v1,W).",     // union over classes
	}
	if relations > 1 {
		srcs = append(srcs,
			`q(V) :- r0(K,V,W1), r1(K,V,W2).`, // join of two conflicted relations
			`q :- r0(K,V,W1), r1(K2,V,W2).`)   // boolean cross-relation join
	}
	out := make([]*query.Q, len(srcs))
	for i, src := range srcs {
		out[i] = parser.MustQuery(src)
	}
	return out
}

func diffConfig(seed int64) fdgen.Config {
	cfg := fdgen.Config{
		Relations:     1 + int(seed%2),
		Rows:          12 + int(seed%4)*8,
		GroupSize:     2 + int(seed%3),
		Violations:    int(seed % 4),
		Classes:       2 + int(seed%2),
		NullRate:      0.15,
		Unconstrained: 8,
		Seed:          seed,
	}
	// Keep Rep(D) small enough for the repair engines to enumerate: the
	// repair count is Classes^(Violations·Relations) in the worst case.
	if cfg.Relations > 1 && cfg.Violations > 2 {
		cfg.Violations = 2
	}
	return cfg
}

func sameTuples(a, b []relational.Tuple) bool {
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

func TestDirectDifferential(t *testing.T) {
	for seed := int64(0); seed < 45; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := diffConfig(seed)
			d, set := fdgen.Generate(cfg)
			eng, err := direct.New(d, set)
			if err != nil {
				t.Fatalf("direct.New: %v", err)
			}
			ctx := context.Background()

			// One session per reference side: the repair set (search) and
			// program translation are computed once and shared across the
			// whole query battery, which is what keeps 45 seeds fast.
			type side struct {
				name string
				sess *session.Session
			}
			sides := []side{{"search", session.New(d, set, session.NewOptions())}}
			progOpts := session.NewOptions()
			progOpts.Engine = session.EngineProgram
			sides = append(sides, side{"program", session.New(d, set, progOpts)})

			for qi, q := range diffQueries(cfg.Relations) {
				res, err := eng.CertainCtx(ctx, d, q)
				if err != nil {
					t.Fatalf("q%d direct certain: %v", qi, err)
				}
				poss, err := eng.PossibleCtx(ctx, d, q)
				if err != nil {
					t.Fatalf("q%d direct possible: %v", qi, err)
				}
				for _, s := range sides {
					ref, err := s.sess.AnswerCtx(ctx, q)
					if err != nil {
						t.Fatalf("q%d %s certain: %v", qi, s.name, err)
					}
					if q.IsBoolean() {
						if res.Boolean != ref.Boolean {
							t.Errorf("q%d %s: boolean direct=%v ref=%v", qi, s.name, res.Boolean, ref.Boolean)
						}
					} else if !sameTuples(res.Tuples, ref.Tuples) {
						t.Errorf("q%d %s: certain direct=%v ref=%v", qi, s.name, res.Tuples, ref.Tuples)
					}
					if !ref.ShortCircuited && res.NumRepairs != ref.NumRepairs {
						t.Errorf("q%d %s: NumRepairs direct=%d ref=%d", qi, s.name, res.NumRepairs, ref.NumRepairs)
					}
					refPoss, err := s.sess.PossibleCtx(ctx, q)
					if err != nil {
						t.Fatalf("q%d %s possible: %v", qi, s.name, err)
					}
					if !sameTuples(poss, refPoss) {
						t.Errorf("q%d %s: possible direct=%v ref=%v", qi, s.name, poss, refPoss)
					}
				}
			}
		})
	}
}
