package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/session"
	"repro/internal/value"
)

// TestProgramEngineStreamDifferential is the tentpole invariant for the
// stable-model engine: on randomized workloads, the program engines'
// streaming answers — cautious (Answer) and brave (Possible), with the boolean short-circuit in play and with it
// sidestepped by full materialization — agree with the direct search
// engine, and the program-engine repair sets are byte-identical to the
// search-engine repair sets.
func TestProgramEngineStreamDifferential(t *testing.T) {
	sets := []*constraint.Set{
		parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`),
		parser.MustConstraints(`
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
		`),
		parser.MustConstraints(`
			p(X) -> q(X) | t(X).
			q(X), t(X) -> false.
		`),
	}
	queries := [][]string{
		{`q(Id) :- student(Id, Name).`, `q :- course(21, c15).`, `q :- student(45, "Paul").`},
		{`q(V) :- s(U, V).`, `q(X, Y) :- r(X, Y).`, `q :- r(a, b).`},
		{`q(X) :- p(X), not t(X).`, `q :- t(a).`, `q :- p(a).`},
	}
	rng := rand.New(rand.NewSource(404))
	vals := []value.V{value.Str("a"), value.Str("b"), value.Null(), value.Int(21)}
	pick := func() value.V { return vals[rng.Intn(len(vals))] }

	gen := func(si int) *relational.Instance {
		d := relational.NewInstance()
		switch si {
		case 0:
			d.Insert(relational.F("course", value.Int(21), value.Str("c15")))
			for k := 0; k < rng.Intn(3); k++ {
				d.Insert(relational.F("course", pick(), pick()))
			}
			for k := 0; k < rng.Intn(3); k++ {
				d.Insert(relational.F("student", pick(), pick()))
			}
		case 1:
			for k := 0; k < 1+rng.Intn(3); k++ {
				d.Insert(relational.F("r", pick(), pick()))
			}
			for k := 0; k < rng.Intn(3); k++ {
				d.Insert(relational.F("s", pick(), pick()))
			}
		case 2:
			for k := 0; k < 1+rng.Intn(3); k++ {
				d.Insert(relational.F("p", pick()))
			}
			for k := 0; k < rng.Intn(2); k++ {
				d.Insert(relational.F("q", pick()))
			}
			for k := 0; k < rng.Intn(2); k++ {
				d.Insert(relational.F("t", pick()))
			}
		}
		return d
	}

	trials := 0
	for round := 0; round < 10; round++ {
		for si, set := range sets {
			d := gen(si)
			trials++

			// Repairs: search baseline vs program engine, byte-identical
			// content and order.
			searchRes, err := repair.Repairs(d, set, repair.Options{})
			if err != nil {
				t.Fatalf("search repairs failed on D=%v, set %d: %v", d, si, err)
			}
			progOpts := session.NewOptions()
			progOpts.Engine = session.EngineProgram
			progRepairs, err := session.New(d, set, progOpts).Repairs()
			if err != nil {
				t.Fatalf("program repairs failed on D=%v, set %d: %v", d, si, err)
			}
			if len(progRepairs) != len(searchRes.Repairs) {
				t.Fatalf("repair counts differ on D=%v, set %d: search %d, program %d",
					d, si, len(searchRes.Repairs), len(progRepairs))
			}
			for i := range progRepairs {
				if !progRepairs[i].Equal(searchRes.Repairs[i]) {
					t.Fatalf("repair %d differs on D=%v, set %d:\nsearch:  %v\nprogram: %v",
						i, d, si, searchRes.Repairs[i], progRepairs[i])
				}
			}

			for _, qsrc := range queries[si] {
				q := parser.MustQuery(qsrc)
				base, err := session.New(d, set, session.NewOptions()).Answer(q)
				if err != nil {
					t.Fatalf("search answers failed on D=%v, set %d, q=%q: %v", d, si, qsrc, err)
				}
				baseBrave, err := session.New(d, set, session.NewOptions()).Possible(q)
				if err != nil {
					t.Fatalf("search possible answers failed on D=%v, set %d, q=%q: %v", d, si, qsrc, err)
				}
				// The short-circuit-free reference: evaluate the query on
				// every materialized repair.
				refBool := true
				if q.IsBoolean() {
					for _, r := range searchRes.Repairs {
						tuples, err := query.EvalWith(r, q, query.Options{})
						if err != nil {
							t.Fatal(err)
						}
						refBool = refBool && len(tuples) > 0
					}
				}

				for _, engine := range []session.Engine{session.EngineProgram, session.EngineProgramCautious} {
					opts := session.NewOptions()
					opts.Engine = engine
					got, err := session.New(d, set, opts).Answer(q)
					if err != nil {
						t.Fatalf("%v failed on D=%v, set %d, q=%q: %v", engine, d, si, qsrc, err)
					}
					if err := sameAnswer(base, got, q); err != nil {
						t.Fatalf("engines disagree on D=%v, set %d, q=%q: %v\nsearch: %+v\n%v: %+v",
							d, si, qsrc, err, base, engine, got)
					}
					if q.IsBoolean() {
						if got.Boolean != refBool {
							t.Fatalf("streaming boolean %v != materialized %v on D=%v, set %d, q=%q",
								got.Boolean, refBool, d, si, qsrc)
						}
						if got.ShortCircuited && got.Boolean {
							t.Fatalf("short-circuit with a certain yes on D=%v, set %d, q=%q", d, si, qsrc)
						}
					}
					brave, err := session.New(d, set, opts).Possible(q)
					if err != nil {
						t.Fatalf("%v possible answers failed on D=%v, set %d, q=%q: %v", engine, d, si, qsrc, err)
					}
					if err := sameTuples(baseBrave, brave); err != nil {
						t.Fatalf("possible answers disagree (%v) on D=%v, set %d, q=%q: %v\nsearch: %v\nprogram: %v",
							engine, d, si, qsrc, err, baseBrave, brave)
					}
				}
			}
		}
	}
	if trials < 30 {
		t.Fatalf("only %d differential trials executed", trials)
	}
}

func sameTuples(a, b []relational.Tuple) error {
	if len(a) != len(b) {
		return fmt.Errorf("tuple counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return fmt.Errorf("tuple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestProgramBooleanShortCircuit mirrors the PR 2 search-engine regression
// for the program engines: a refuted boolean query stops the stable-model
// stream before all repairs are seen, a certain yes pays for the full
// enumeration.
func TestProgramBooleanShortCircuit(t *testing.T) {
	d, setSrc := violatingCourses(5)
	set := parser.MustConstraints(setSrc)
	full, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Repairs) < 8 {
		t.Fatalf("workload too small: %d repairs", len(full.Repairs))
	}

	refuted := parser.MustQuery(`q :- course(34, c18).`)
	certain := parser.MustQuery(`q :- student(21, "Ann").`)
	for _, engine := range []session.Engine{session.EngineProgram, session.EngineProgramCautious} {
		opts := session.NewOptions()
		opts.Engine = engine
		ans, err := session.New(d, set, opts).Answer(refuted)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Boolean || !ans.ShortCircuited {
			t.Errorf("%v: refuted answer = %+v, want short-circuited no", engine, ans)
		}
		if ans.NumRepairs >= len(full.Repairs) {
			t.Errorf("%v: short-circuit saw %d repairs of %d — no early cancellation",
				engine, ans.NumRepairs, len(full.Repairs))
		}
		ans, err = session.New(d, set, opts).Answer(certain)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Boolean || ans.ShortCircuited {
			t.Errorf("%v: certain answer = %+v, want non-short-circuited yes", engine, ans)
		}
		if ans.NumRepairs != len(full.Repairs) {
			t.Errorf("%v: certain yes saw %d repairs, want all %d", engine, ans.NumRepairs, len(full.Repairs))
		}
	}
}

// TestStableWorkersMatchSequentialAnswers pins the program engines'
// determinism: answers and diagnostics from repeated fresh sessions are
// identical, including under cancellation (boolean short-circuits).
func TestStableWorkersMatchSequentialAnswers(t *testing.T) {
	d, setSrc := violatingCourses(4)
	set := parser.MustConstraints(setSrc)
	qs := []*query.Q{
		parser.MustQuery(`q(Id) :- student(Id, Name).`),
		parser.MustQuery(`q :- course(34, c18).`),
		parser.MustQuery(`q :- student(21, "Ann").`),
	}
	for _, engine := range []session.Engine{session.EngineProgram, session.EngineProgramCautious} {
		opts := session.NewOptions()
		opts.Engine = engine
		for _, q := range qs {
			first, err := session.New(d, set, opts).Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run < 4; run++ {
				again, err := session.New(d, set, opts).Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				// The model stream is deterministic, so even the
				// diagnostics must match exactly.
				if first.Boolean != again.Boolean || first.NumRepairs != again.NumRepairs ||
					first.ShortCircuited != again.ShortCircuited || len(first.Tuples) != len(again.Tuples) {
					t.Fatalf("%v run %d diverges on %v:\nfirst: %+v\nagain: %+v", engine, run, q, first, again)
				}
			}
		}
	}
}
