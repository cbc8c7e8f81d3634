package nullcqa_test

// Benchmarks for the direct (repair-less) engine: classification vs repair
// enumeration, incremental session maintenance, and sustained concurrent
// update throughput. EXPERIMENTS.md records the measured numbers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/engine"
	"repro/internal/fdgen"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/value"
	"repro/internal/wire"
)

// directBenchQuery projects the dependent values of one conflicted key
// group: its certain answers are empty and its possible answers are the
// group's classes, so every engine must actually reason about the conflict
// rather than ride a short-circuit.
func directBenchQuery() *query.Q {
	return parser.MustQuery(`q(V) :- r0("k0_0", V, Id).`)
}

// BenchmarkDirectVsRepair compares consistent query answering on FD-only
// workloads across the three engines. The repair engines pay for the
// enumeration of 2^violations · ... repairs (Classes=2 ⇒ 2^v), the direct
// engine for one classification pass plus a per-candidate certainty check,
// so the gap widens exponentially in the violation count. The scaling
// points (10⁴–10⁶ rows, violations in the thousands) have repair sets of
// size 2^2500 and beyond — no repair engine terminates on them at any
// -benchtime, so only the direct engine runs there; on the 10⁶-row point it
// still answers in well under 100ms.
func BenchmarkDirectVsRepair(b *testing.B) {
	q := directBenchQuery()

	for _, v := range []int{2, 6, 10} {
		cfg := fdgen.Config{Rows: 1000, Violations: v, Seed: 7}
		d, set := fdgen.Generate(cfg)
		for _, eng := range []struct {
			name   string
			engine session.Engine
		}{
			{"search", session.EngineSearch},
			{"program", session.EngineProgram},
			{"direct", session.EngineDirect},
		} {
			b.Run(fmt.Sprintf("rows=1000/violations=%d/%s", v, eng.name), func(b *testing.B) {
				opts := session.NewOptions()
				opts.Engine = eng.engine
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ans, err := session.New(d, set, opts).Answer(q)
					if err != nil || len(ans.Tuples) != 0 {
						b.Fatalf("certain=%d err=%v", len(ans.Tuples), err)
					}
				}
			})
		}
	}

	// Repair-infeasible scale: every fourth key group conflicted, so the
	// repair set has 2^(rows/8) elements. "cold" pays the one-shot cost
	// (classification scan of the whole instance plus the answer); "warm"
	// answers on a session whose classification is already maintained,
	// which is the deployed shape — cqad keeps sessions alive and Update
	// advances them in O(|Δ|).
	for _, rows := range []int{10_000, 100_000, 1_000_000} {
		cfg := fdgen.Config{Rows: rows, Violations: rows / 8, Seed: 7}
		d, set := fdgen.Generate(cfg)
		opts := session.NewOptions()
		opts.Engine = session.EngineDirect
		b.Run(fmt.Sprintf("rows=%d/violations=%d/direct-cold", rows, rows/8), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, err := session.New(d, set, opts).Answer(q)
				if err != nil || len(ans.Tuples) != 0 {
					b.Fatalf("certain=%d err=%v", len(ans.Tuples), err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/violations=%d/direct-warm", rows, rows/8), func(b *testing.B) {
			s := session.New(d, set, opts)
			if _, err := s.Answer(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ans, err := s.Answer(q)
				if err != nil || len(ans.Tuples) != 0 {
					b.Fatalf("certain=%d err=%v", len(ans.Tuples), err)
				}
			}
		})
	}
}

// BenchmarkDirectSessionUpdate is the incremental-maintenance acceptance
// benchmark: sustained small updates against a direct-engine session with a
// standing query. "session" applies each delta to a persistent session, so
// the classification advances in O(|Δ|); "scratch" is what callers without
// the session layer would do — rebuild the classification from the full
// instance on every step and answer from the rebuild.
func BenchmarkDirectSessionUpdate(b *testing.B) {
	cfg := fdgen.Config{Rows: 10_000, Violations: 50, Seed: 3}
	d, set := fdgen.Generate(cfg)
	deltas := fdgen.Updates(cfg, 64, 4)
	q := directBenchQuery()

	b.Run("session", func(b *testing.B) {
		opts := session.NewOptions()
		opts.Engine = session.EngineDirect
		s := session.New(d.Clone(), set, opts)
		if _, err := s.Answer(q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Apply(deltas[i%len(deltas)]); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Answer(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		cur := d.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dl := deltas[i%len(deltas)]
			for _, f := range dl.Removed {
				cur.Delete(f)
			}
			for _, f := range dl.Added {
				cur.Insert(f)
			}
			opts := session.NewOptions()
			opts.Engine = session.EngineDirect
			if _, err := session.New(cur, set, opts).Answer(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fdLiveQueries are fd-live's two standing queries.
var fdLiveQueries = []string{`qa(K, V) :- r0(K, V, I).`, `qb(K, W) :- s(K, W), r0(K, V, I).`}

// fdLiveKey is the key of fdgen's key group grp.
func fdLiveKey(grp int) value.V { return value.Str(fmt.Sprintf("k%d_0", grp)) }

// fdLive builds the fd-live benchmark instance: fdgen's r0 of 20k rows in
// two-row key groups, 100 of them conflicted, plus s with one row per key
// group.
func fdLive() (*relational.Instance, *constraint.Set, fdgen.Config) {
	cfg := fdgen.Config{Rows: 20000, GroupSize: 2, Violations: 100, Classes: 2}.Normalized()
	d, set := fdgen.Generate(cfg)
	for grp := 0; grp < cfg.Rows/cfg.GroupSize; grp++ {
		d.Insert(relational.F(fdgen.UnconstrainedName, fdLiveKey(grp), value.Str(fmt.Sprintf("w%d", grp))))
	}
	return d, set, cfg
}

// BenchmarkDirectCreate is fd-live's set-up in process, without HTTP: one
// op is one create as cqad serves it — the structured create body decoded
// strictly, its instance converted, the session built and asked whether
// it is consistent (the create response carries the verdict) — followed
// by the prepares of fd-live's two standing queries, whose first full
// passes are the rest of the set-up.
func BenchmarkDirectCreate(b *testing.B) {
	d, set, _ := fdLive()
	inst, cs := wire.FromInstance(d), wire.FromConstraints(set)
	body, err := json.Marshal(wire.CreateSessionRequest{Name: "fd", Instance: &inst, Constraints: &cs, Engine: "auto"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req wire.CreateSessionRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			b.Fatal(err)
		}
		set, err := req.Constraints.ToSet()
		if err != nil {
			b.Fatal(err)
		}
		opts, err := engine.Options(req.Engine, 0)
		if err != nil {
			b.Fatal(err)
		}
		s := session.New(req.Instance.ToInstance(), set, opts)
		if s.Consistent() {
			b.Fatal("fd-live has 100 conflicted groups")
		}
		for _, src := range fdLiveQueries {
			q, err := parser.Query(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Prepare(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDirectStandingApply measures what an apply costs a direct
// session with standing queries, on the fd-live shape: fdgen's r0 of 20k
// rows in two-row key groups, 100 of them conflicted, s with one row per
// key group, and fd-live's two standing queries, whose ~10k answers each
// are patched across every apply (direct.Engine.Patch) rather than
// recomputed. One untimed iteration warms the indexes the patch joins use;
// each iteration then inserts and undoes one row of a clean r0 group
// (constraint-relevant, refreshing both queries) and one s row
// (irrelevant, refreshing qb). B/op is gated too: the s insert and undo
// each change qb's answers and so copy its list once (~240 KB each), and a
// patch that copied more often, or copied lists it did not change, shows
// there first.
func BenchmarkDirectStandingApply(b *testing.B) {
	d, set, cfg := fdLive()
	groups := cfg.Rows / cfg.GroupSize
	key := fdLiveKey
	opts := session.NewOptions()
	opts.Engine = session.EngineAuto
	s := session.New(d, set, opts)
	for _, src := range fdLiveQueries {
		if _, err := s.Prepare(parser.MustQuery(src)); err != nil {
			b.Fatal(err)
		}
	}
	fresh := int64(cfg.Rows)
	iteration := func(i int) {
		fresh++
		relevant := relational.F(fdgen.RelName(0), key(cfg.Violations+i%(groups-cfg.Violations)), value.Str("v0"), value.Int(fresh))
		irrelevant := relational.F(fdgen.UnconstrainedName, key(i%groups), value.Str(fmt.Sprintf("x%d", fresh)))
		for _, f := range []relational.Fact{relevant, irrelevant} {
			if _, err := s.Apply(relational.Delta{Added: []relational.Fact{f}}); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Apply(relational.Delta{Removed: []relational.Fact{f}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	iteration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iteration(i + 1)
	}
}

// BenchmarkSessionSustained drives a direct-engine session the way cqad
// does: several writer goroutines produce timestamped deltas into a queue,
// one consumer (sessions are single-writer by contract) applies them and
// answers the standing query. ns/op is the end-to-end apply+answer cost;
// the extra metrics report the staleness distribution — how long a delta
// waited from production to applied — and the sustained apply throughput.
func BenchmarkSessionSustained(b *testing.B) {
	cfg := fdgen.Config{Rows: 10_000, Violations: 50, Seed: 5}
	d, set := fdgen.Generate(cfg)
	q := directBenchQuery()

	const writers = 4
	type stamped struct {
		dl relational.Delta
		at time.Time
	}

	opts := session.NewOptions()
	opts.Engine = session.EngineDirect
	s := session.New(d.Clone(), set, opts)
	if _, err := s.Answer(q); err != nil {
		b.Fatal(err)
	}

	// The writers' update lists are built before the timer starts, so
	// their allocations stay out of allocs/op.
	lists := make([][]relational.Delta, writers)
	for w := range lists {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + int64(w)
		lists[w] = fdgen.Updates(wcfg, 64, 4)
	}

	ch := make(chan stamped, 4*writers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, deltas := range lists {
		wg.Add(1)
		go func(deltas []relational.Delta) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case ch <- stamped{deltas[i%len(deltas)], time.Now()}:
				case <-done:
					return
				}
			}
		}(deltas)
	}
	defer func() { close(done); wg.Wait() }()

	staleness := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		st := <-ch
		if _, err := s.Apply(st.dl); err != nil {
			b.Fatal(err)
		}
		staleness = append(staleness, time.Since(st.at))
		if _, err := s.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()

	sort.Slice(staleness, func(i, j int) bool { return staleness[i] < staleness[j] })
	b.ReportMetric(float64(staleness[len(staleness)/2]), "p50-staleness-ns")
	b.ReportMetric(float64(staleness[len(staleness)*99/100]), "p99-staleness-ns")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "applies/sec")
}
