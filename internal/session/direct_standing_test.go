package session_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constraint"
	"repro/internal/direct"
	"repro/internal/fdgen"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/value"
)

// The direct standing contract: a direct-engine session patches its
// prepared queries across every apply (direct.Engine.Patch) and never
// re-runs a full pass, yet after every apply each prepared query's answers,
// and its Subscribe diffs replayed over the answers at Prepare, equal a
// direct engine built from scratch on the mutated instance, and its
// consistency verdict and violation count equal a search session's.

// standingQueries is internal/direct's differential battery over r0, r1
// (key, dependent, id) and the unconstrained s, plus a join reading s
// first, two negated literals, and a repeated variable across the key and
// the dependent.
var standingQueries = []string{
	`q(K,V) :- r0(K,V,W).`,
	`q(K) :- r0(K,V,W).`,
	`q(V) :- r0(K,V,W), s(K,V2).`,
	`q(K,V) :- s(K,V), r0(K,V2,W), not r0(K,V,W).`,
	`q(K) :- r0(K,b,W).`,
	`q :- r0(K,a,W), s(K,V).`,
	`q(K,W) :- r0(K,V,W), W >= 6.`,
	"q(K) :- r0(K,a,W).\nq(K) :- r0(K,b,W).",
	`q(V) :- r0(K,V,W1), r1(K,V,W2).`,
	`q :- r0(K,V,W1), r1(K2,V,W2).`,
	`q(K,W) :- s(K,W), r0(K,V,I).`,
	`q(K,V) :- s(K,V), not r0(K,V,5), not r1(K,V,6).`,
	`q(X) :- r0(X,X,W).`,
}

// standingPool is the closed universe the Δ streams draw from: r0 and r1
// rows over keys a, b, c, null, dependents a, b, null and ids 5, 6, then s
// rows over the same keys.
func standingPool() []relational.Fact {
	keys := []value.V{value.Str("a"), value.Str("b"), value.Str("c"), value.Null()}
	deps := []value.V{value.Str("a"), value.Str("b"), value.Null()}
	var pool []relational.Fact
	for _, rel := range []string{"r0", "r1"} {
		for _, k := range keys {
			for _, v := range deps {
				for _, id := range []int64{5, 6} {
					pool = append(pool, relational.F(rel, k, v, value.Int(id)))
				}
			}
		}
	}
	for _, k := range keys {
		for _, w := range []value.V{value.Str("a"), value.Str("b"), value.Str("w")} {
			pool = append(pool, relational.F("s", k, w))
		}
	}
	return pool
}

// standingEvents counts the group transitions a stream must hit to mean
// anything: a clean group gaining a class, a conflicted group losing all
// but one, a group emptied and later re-created, and s churned.
type standingEvents struct {
	conflicted, resolved, recreated, unconstrained int
}

// groupClasses maps each non-exempt key group of the constrained
// relations to its dependent classes: r0's key is its first position,
// r1's (when constrained) its first and last.
func groupClasses(db refDB, rels int) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, f := range db {
		if f.Pred == "s" || (f.Pred == "r1" && rels < 2) || f.Args[0].IsNull() || f.Args[1].IsNull() {
			continue
		}
		g := f.Pred + "/" + f.Args[0].String()
		if f.Pred == "r1" {
			g += "," + f.Args[2].String()
		}
		if out[g] == nil {
			out[g] = map[string]bool{}
		}
		out[g][f.Args[1].String()] = true
	}
	return out
}

// checkDirectStanding drives one direct session over the pool facts start
// (indices) through steps, each a list of pool indices whose facts it
// toggles, and checks every prepared query against scratch after every
// apply. rels is 1 (an FD on r0; r1 is unconstrained) or 2 (r1 also
// carries an FD, keyed on its first and last positions).
func checkDirectStanding(t *testing.T, rels int, start []int, steps [][]int, ev *standingEvents) {
	t.Helper()
	ctx := context.Background()
	ics := `r0(K,V1,W1), r0(K,V2,W2) -> V1 = V2.`
	if rels > 1 {
		ics += "\nr1(K,V1,W), r1(K,V2,W) -> V1 = V2."
	}
	set := parser.MustConstraints(ics)
	pool := standingPool()
	db := refDB{}
	for _, i := range start {
		f := pool[i%len(pool)]
		db[f.Key()] = f
	}
	opts := session.NewOptions()
	opts.Engine = session.EngineDirect
	s := session.New(db.instance(), set, opts)

	queries := make([]*query.Q, len(standingQueries))
	prepared := make([]*session.Prepared, len(standingQueries))
	replayed := make([]map[string]bool, len(standingQueries))
	replayedBool := make([]bool, len(standingQueries))
	for qi, src := range standingQueries {
		q := parser.MustQuery(src)
		p, err := s.Prepare(q)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		queries[qi], prepared[qi] = q, p
		replayed[qi], replayedBool[qi] = map[string]bool{}, p.Boolean()
		for _, tu := range p.Answers() {
			replayed[qi][tu.Key()] = true
		}
		cur := replayed[qi]
		p.Subscribe(func(u session.QueryUpdate) {
			if u.BooleanChanged {
				replayedBool[qi] = u.Boolean
			}
			for _, tu := range u.Removed {
				if !cur[tu.Key()] {
					t.Errorf("%s: removed %v, not an answer", q, tu)
				}
				delete(cur, tu.Key())
			}
			for _, tu := range u.Added {
				if cur[tu.Key()] {
					t.Errorf("%s: added %v, already an answer", q, tu)
				}
				cur[tu.Key()] = true
			}
		})
	}
	passes := s.DirectStats().FullPasses
	checkViolationCount(t, s, db.instance(), set, "at prepare")

	emptied := map[string]bool{}
	for step, idx := range steps {
		var dl relational.Delta
		seen := map[string]bool{}
		for _, i := range idx {
			f := pool[i%len(pool)]
			if seen[f.Key()] {
				continue
			}
			seen[f.Key()] = true
			if _, ok := db[f.Key()]; ok {
				dl.Removed = append(dl.Removed, f)
			} else {
				dl.Added = append(dl.Added, f)
			}
			if f.Pred == "s" {
				ev.unconstrained++
			}
		}
		before := groupClasses(db, rels)
		db.apply(dl)
		after := groupClasses(db, rels)
		for g, cs := range after {
			switch {
			case len(before[g]) == 1 && len(cs) >= 2:
				ev.conflicted++
			case len(before[g]) >= 2 && len(cs) == 1:
				ev.resolved++
			}
			if emptied[g] {
				ev.recreated++
				delete(emptied, g)
			}
		}
		for g := range before {
			if after[g] == nil {
				emptied[g] = true
			}
		}

		if _, err := s.ApplyCtx(ctx, dl); err != nil {
			t.Fatalf("step %d: Apply(%s): %v", step, dl, err)
		}
		scratchDB := db.instance()
		scratch, err := direct.New(scratchDB, set)
		if err != nil {
			t.Fatal(err)
		}
		checkViolationCount(t, s, scratchDB, set, fmt.Sprintf("step %d after %s", step, dl))
		for qi, q := range queries {
			want, err := scratch.CertainCtx(ctx, scratchDB, q)
			if err != nil {
				t.Fatal(err)
			}
			p := prepared[qi]
			if !p.Valid() {
				t.Fatalf("step %d %s: prepared query invalid", step, q)
			}
			if q.IsBoolean() {
				if p.Boolean() != want.Boolean || replayedBool[qi] != want.Boolean {
					t.Fatalf("step %d after %s: %s prepared %v, replayed %v, scratch %v",
						step, dl, q, p.Boolean(), replayedBool[qi], want.Boolean)
				}
				continue
			}
			if tuplesKey(p.Answers()) != tuplesKey(want.Tuples) {
				t.Fatalf("step %d after %s: %s prepared %v, scratch %v", step, dl, q, p.Answers(), want.Tuples)
			}
			if len(replayed[qi]) != len(want.Tuples) {
				t.Fatalf("step %d after %s: %s replayed %d answers, scratch %v", step, dl, q, len(replayed[qi]), want.Tuples)
			}
			for _, tu := range want.Tuples {
				if !replayed[qi][tu.Key()] {
					t.Fatalf("step %d after %s: %s replayed answers miss %v", step, dl, q, tu)
				}
			}
		}
	}
	if got := s.DirectStats().FullPasses; got != passes {
		t.Fatalf("the stream ran %d full passes after Prepare, want 0", got-passes)
	}
}

// checkViolationCount checks a direct session's Consistent and
// ViolationCount, which the FD classification answers, against a search
// session built on d, which checks the constraints by joins.
func checkViolationCount(t *testing.T, s *session.Session, d *relational.Instance, set *constraint.Set, at string) {
	t.Helper()
	ref := session.New(d, set, session.NewOptions())
	if got, want := s.Consistent(), ref.Consistent(); got != want {
		t.Fatalf("%s: Consistent() = %v, search session says %v", at, got, want)
	}
	if got, want := s.ViolationCount(), len(ref.Violations()); got != want {
		t.Fatalf("%s: ViolationCount() = %d, search session has %d violations", at, got, want)
	}
}

// TestDirectStandingEqualsScratch runs checkDirectStanding over 120 seeded
// streams of 25 applies of 1–4 facts, on one and two constrained
// relations, and checks that the streams hit every group transition.
func TestDirectStandingEqualsScratch(t *testing.T) {
	const seeds, steps = 120, 25
	var ev standingEvents
	n := len(standingPool())
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := rng.Perm(n)[:n/3]
		stream := make([][]int, steps)
		for i := range stream {
			stream[i] = rng.Perm(n)[:1+rng.Intn(4)]
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkDirectStanding(t, 1+int(seed%2), start, stream, &ev)
		})
	}
	if ev.conflicted == 0 || ev.resolved == 0 || ev.recreated == 0 || ev.unconstrained == 0 {
		t.Fatalf("streams missed a group transition: %+v", ev)
	}
}

// FuzzDirectStanding is checkDirectStanding on decoded streams: the first
// byte picks the relation count and the start size, the next start-size
// bytes the start facts, and then each apply is a length byte (1–4 facts)
// followed by that many fact bytes.
func FuzzDirectStanding(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 4, 9, 0, 1, 0, 1})                  // a second class and back
	f.Add([]byte{4, 0, 2, 48, 51, 1, 0, 1, 2, 2, 48})            // s churn beside a conflict
	f.Add([]byte{5, 0, 1, 24, 25, 26, 3, 0, 1, 24, 3, 0, 1, 24}) // empty two groups, re-create
	f.Add([]byte{6, 6, 7, 30, 31, 54, 55, 0, 4, 6, 30, 54, 57})  // key = dependent, two relations
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rels, n := 1+int(data[0]%2), int(data[0]/2)
		data = data[1:]
		if n > len(data) {
			n = len(data)
		}
		start := make([]int, n)
		for i := range start {
			start[i] = int(data[i])
		}
		data = data[n:]
		var steps [][]int
		for len(data) > 0 && len(steps) < 32 {
			k := 1 + int(data[0]%4)
			data = data[1:]
			if k > len(data) {
				k = len(data)
			}
			if k == 0 {
				break
			}
			step := make([]int, k)
			for i := range step {
				step[i] = int(data[i])
			}
			steps = append(steps, step)
			data = data[k:]
		}
		checkDirectStanding(t, rels, start, steps, &standingEvents{})
	})
}

// fdLiveSession is the fd-live benchmark shape in process: fdgen's r0 of
// 20k rows in two-row key groups, 100 of them conflicted, plus s with one
// row per key group, under engine auto with fd-live's two standing
// queries.
func fdLiveSession(t testing.TB) (*session.Session, []*session.Prepared, fdgen.Config) {
	cfg := fdgen.Config{Rows: 20000, GroupSize: 2, Violations: 100, Classes: 2}.Normalized()
	d, set := fdgen.Generate(cfg)
	groups := cfg.Rows / cfg.GroupSize
	for grp := 0; grp < groups; grp++ {
		d.Insert(relational.F(fdgen.UnconstrainedName, value.Str(fmt.Sprintf("k%d_0", grp)), value.Str(fmt.Sprintf("w%d", grp))))
	}
	opts := session.NewOptions()
	opts.Engine = session.EngineAuto
	s := session.New(d, set, opts)
	var ps []*session.Prepared
	for _, src := range []string{`qa(K, V) :- r0(K, V, I).`, `qb(K, W) :- s(K, W), r0(K, V, I).`} {
		p, err := s.Prepare(parser.MustQuery(src))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return s, ps, cfg
}

// TestDirectStandingApplyWork is the in-process tripwire for the patched
// standing queries: on the fd-live shape, each relevant insert of a row
// into a clean group, each irrelevant insert of an s row (on a clean and
// on a conflicted key) and each undo runs no full pass and at most one
// head-bound probe per refreshed query, the answer counts stay right, and
// an answer list taken before an apply is not changed by it.
func TestDirectStandingApplyWork(t *testing.T) {
	s, ps, cfg := fdLiveSession(t)
	groups := cfg.Rows / cfg.GroupSize
	wantA, wantB := groups-cfg.Violations, groups
	if len(ps[0].Answers()) != wantA || len(ps[1].Answers()) != wantB {
		t.Fatalf("prepared %d and %d answers, want %d and %d", len(ps[0].Answers()), len(ps[1].Answers()), wantA, wantB)
	}
	key := func(grp int) value.V { return value.Str(fmt.Sprintf("k%d_0", grp)) }
	fresh := int64(cfg.Rows)
	start := s.DirectStats()
	defer func() {
		end := s.DirectStats()
		t.Logf("16 applies: %d tuples reached, %d probes, %d full passes",
			end.TuplesReached-start.TuplesReached, end.Probes-start.Probes, end.FullPasses-start.FullPasses)
	}()
	for i := 0; i < 4; i++ {
		fresh++
		relevant := relational.F(fdgen.RelName(0), key(cfg.Violations+7*i), value.Str("v0"), value.Int(fresh))
		// Even rounds churn s on a conflicted key, odd rounds on a clean one.
		irrelevant := relational.F(fdgen.UnconstrainedName, key(i%2*cfg.Violations+i), value.Str(fmt.Sprintf("x%d", fresh)))
		for _, step := range []struct {
			name   string
			dl     relational.Delta
			counts [2]int
		}{
			{"relevant insert", relational.Delta{Added: []relational.Fact{relevant}}, [2]int{wantA, wantB}},
			{"relevant undo", relational.Delta{Removed: []relational.Fact{relevant}}, [2]int{wantA, wantB}},
			{"irrelevant insert", relational.Delta{Added: []relational.Fact{irrelevant}}, [2]int{wantA, wantB + 1}},
			{"irrelevant undo", relational.Delta{Removed: []relational.Fact{irrelevant}}, [2]int{wantA, wantB}},
		} {
			before := s.DirectStats()
			held := [2][]relational.Tuple{ps[0].Answers(), ps[1].Answers()}
			heldCopy := [2][]relational.Tuple{slices.Clone(held[0]), slices.Clone(held[1])}
			res, err := s.Apply(step.dl)
			if err != nil {
				t.Fatal(err)
			}
			after := s.DirectStats()
			for qi := range held {
				if !slices.EqualFunc(held[qi], heldCopy[qi], relational.Tuple.Equal) {
					t.Errorf("round %d %s: query %d's answers taken before the apply changed under the caller", i, step.name, qi)
				}
			}
			if n := after.FullPasses - before.FullPasses; n != 0 {
				t.Errorf("round %d %s: %d full passes, want 0", i, step.name, n)
			}
			if n := after.Probes - before.Probes; n > res.QueriesRefreshed {
				t.Errorf("round %d %s: %d probes for %d refreshed queries", i, step.name, n, res.QueriesRefreshed)
			}
			for qi, p := range ps {
				if len(p.Answers()) != step.counts[qi] {
					t.Errorf("round %d %s: query %d has %d answers, want %d", i, step.name, qi, len(p.Answers()), step.counts[qi])
				}
			}
		}
	}
}
