package stable

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// choiceProgram builds n independent binary choices (2^n stable models,
// one component per choice).
func choiceProgram(n int) *logic.Program {
	p := &logic.Program{}
	for i := 0; i < n; i++ {
		p.Rules = append(p.Rules, logic.Rule{
			Head: []term.Atom{{Pred: "l" + itoa(i)}, {Pred: "r" + itoa(i)}},
			Pos:  []term.Atom{{Pred: "s" + itoa(i)}},
		})
		p.Facts = append(p.Facts, term.Atom{Pred: "s" + itoa(i)})
	}
	return p
}

// linkedChoiceProgram is choiceProgram glued into one component: the seed
// is derived by a head-only rule instead of being a fact, so every choice
// rule shares the seed atom and, instantiated by handGround, the ground
// program cannot be decomposed. (ground.Ground would fold the seed into a
// fact and split the program into n components.)
func linkedChoiceProgram(n int) *logic.Program {
	p := &logic.Program{Rules: []logic.Rule{{Head: []term.Atom{atom("seed")}}}}
	for i := 0; i < n; i++ {
		p.Rules = append(p.Rules, logic.Rule{
			Head: []term.Atom{{Pred: "l" + itoa(i)}, {Pred: "r" + itoa(i)}},
			Pos:  []term.Atom{atom("seed")},
		})
	}
	return p
}

// handGround instantiates a propositional program as written: atoms are
// numbered in order of first occurrence, facts stay facts and every rule
// is kept, with none of the grounder's simplification or folding. It keeps
// fixtures whose shape is the point of a test, such as one component glued
// by a derived atom, out of reach of the fold that would decide the glue.
func handGround(p *logic.Program) *ground.Program {
	gp := &ground.Program{}
	ids := map[string]int{}
	idsOf := func(atoms []term.Atom) []int {
		var out []int
		for _, a := range atoms {
			name := a.String()
			id, ok := ids[name]
			if !ok {
				id = len(gp.Atoms)
				ids[name] = id
				gp.Atoms = append(gp.Atoms, groundAtom(a))
			}
			out = append(out, id)
		}
		return out
	}
	gp.Facts = idsOf(p.Facts)
	for _, r := range p.Rules {
		gp.Rules = append(gp.Rules, ground.Rule{Head: idsOf(r.Head), Pos: idsOf(r.Pos), Neg: idsOf(r.Neg)})
	}
	return gp
}

// TestEnumerateStreamsFirstModel is the tentpole's streaming guarantee: the
// first model must be observable before the enumeration completes. With a
// candidate budget too small for the full single-component 2^8-model
// enumeration, Models fails with ErrCandidateLimit — but a consumer that
// cancels at the first model gets it without ever paying for the rest.
func TestEnumerateStreamsFirstModel(t *testing.T) {
	gp := handGround(linkedChoiceProgram(8))
	if n := Decompose(gp).Len(); n != 1 {
		t.Fatalf("components = %d, want 1", n)
	}
	opts := Options{MaxCandidates: 40} // far below the 2^8 candidates

	if _, err := Models(gp, opts); err != ErrCandidateLimit {
		t.Fatalf("full enumeration err = %v, want ErrCandidateLimit", err)
	}

	var got Model
	calls := 0
	if err := Enumerate(gp, opts, func(m Model) bool {
		calls++
		got = m
		return false
	}); err != nil {
		t.Fatalf("streaming first model err = %v", err)
	}
	if calls != 1 || len(got) != 9 { // seed + 8 chosen disjuncts
		t.Fatalf("calls=%d first model=%v", calls, got)
	}
}

// TestWorkersCancelStaysWithinBudget guards the on-demand contract: a
// consumer that stops at the first model (or the second) pays only for
// those, so a budget far below the full 2^8-model enumeration admits them,
// and they are the unbounded stream's first models.
func TestWorkersCancelStaysWithinBudget(t *testing.T) {
	gp := handGround(linkedChoiceProgram(8)) // single component, 2^8 models
	if n := Decompose(gp).Len(); n != 1 {
		t.Fatalf("components = %d, want 1", n)
	}
	all := mustModels(t, gp)
	for _, stopAt := range []int{1, 2} {
		var got []Model
		if err := Enumerate(gp, Options{MaxCandidates: 90}, func(m Model) bool {
			got = append(got, m)
			return len(got) < stopAt
		}); err != nil {
			t.Fatalf("stop at %d: stream err = %v", stopAt, err)
		}
		if !reflect.DeepEqual(got, all[:stopAt]) || len(got[0]) != 9 {
			t.Fatalf("stop at %d: got %v, want the stream's first %d models %v", stopAt, got, stopAt, all[:stopAt])
		}
	}
}

// TestBudgetCutoffIdenticalAcrossWorkers pins the budget contract: for any
// MaxCandidates, the enumeration yields a prefix of the unbounded stream,
// and reports ErrCandidateLimit exactly when that prefix is short. A
// consumer capping the stream in yield gets the first models, and hits the
// limit only if the budget cannot pay for them.
func TestBudgetCutoffIdenticalAcrossWorkers(t *testing.T) {
	// Two independent 2^6-model components, each glued by its derived
	// seed: the odometer exhausts the last component's models 64 times
	// over while the first crawls.
	p := &logic.Program{Rules: []logic.Rule{
		{Head: []term.Atom{atom("seedA")}},
		{Head: []term.Atom{atom("seedB")}},
	}}
	for i := 0; i < 6; i++ {
		p.Rules = append(p.Rules,
			logic.Rule{
				Head: []term.Atom{{Pred: "al" + itoa(i)}, {Pred: "ar" + itoa(i)}},
				Pos:  []term.Atom{atom("seedA")},
			},
			logic.Rule{
				Head: []term.Atom{{Pred: "bl" + itoa(i)}, {Pred: "br" + itoa(i)}},
				Pos:  []term.Atom{atom("seedB")},
			})
	}
	gp := handGround(p)
	if n := Decompose(gp).Len(); n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	all := mustModels(t, gp)
	if len(all) != 1<<12 {
		t.Fatalf("unbounded stream = %d models, want %d", len(all), 1<<12)
	}
	collect := func(budget, maxModels int) ([]Model, error) {
		var out []Model
		err := Enumerate(gp, Options{MaxCandidates: budget}, func(m Model) bool {
			out = append(out, m)
			return maxModels == 0 || len(out) < maxModels
		})
		return out, err
	}
	for _, budget := range []int{1, 3, 7, 20, 65, 130, 300, 5000} {
		for _, maxModels := range []int{0, 1, 100} {
			want := len(all)
			if maxModels > 0 {
				want = maxModels
			}
			got, err := collect(budget, maxModels)
			if len(got) > 0 && !reflect.DeepEqual(got, all[:len(got)]) {
				t.Fatalf("budget=%d maxModels=%d: %d models are not a prefix of the stream", budget, maxModels, len(got))
			}
			var wantErr error
			if len(got) < want {
				wantErr = ErrCandidateLimit
			}
			if err != wantErr {
				t.Fatalf("budget=%d maxModels=%d: %d of %d models, err %v", budget, maxModels, len(got), want, err)
			}
			// The cutoff is a pure function of the program and the budget.
			again, errAgain := collect(budget, maxModels)
			if errAgain != err || !reflect.DeepEqual(again, got) {
				t.Fatalf("budget=%d maxModels=%d: rerun gave %d models, err %v; first run %d, err %v",
					budget, maxModels, len(again), errAgain, len(got), err)
			}
		}
	}
}

// TestDecompositionBeatsCandidateBudget pins the component win itself: the
// same 2^8 models, with the seeds as facts, decompose into 8 two-model
// components, so the full enumeration fits in a budget the single-component
// program blows through — the cross-product is combined, never solved for.
func TestDecompositionBeatsCandidateBudget(t *testing.T) {
	gp := groundProgram(t, choiceProgram(8))
	ms, err := Models(gp, Options{MaxCandidates: 40})
	if err != nil {
		t.Fatalf("decomposed enumeration err = %v", err)
	}
	if len(ms) != 1<<8 {
		t.Fatalf("models = %d, want %d", len(ms), 1<<8)
	}
}

// TestEnumerateCancelMidStream checks exact cancellation: after yield
// returns false no further models are delivered and no error is reported.
func TestEnumerateCancelMidStream(t *testing.T) {
	gp := groundProgram(t, choiceProgram(5))
	seen := 0
	if err := Enumerate(gp, Options{}, func(Model) bool {
		seen++
		return seen < 7
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("yield ran %d times after cancellation at 7", seen)
	}
}

// TestEnumerateWorkersIdenticalStream pins the stream on randomized
// multi-component programs: it is reproducible across runs, content and
// order, and holds exactly the brute-force stable models.
func TestEnumerateWorkersIdenticalStream(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		p := randomGroundProgramClean(rng, 8)
		first, err := Models(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		again, err := Models(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("trial %d: stream not reproducible\nfirst: %v\nagain: %v\nprogram:\n%s",
				trial, first, again, p)
		}
		want := bruteStable(p)
		keys := map[string]bool{}
		for _, m := range first {
			keys[modelKey(m)] = true
		}
		if len(keys) != len(first) || len(first) != len(want) {
			t.Fatalf("trial %d: stream %v, want the models %v\nprogram:\n%s", trial, first, want, p)
		}
		for _, m := range want {
			if !keys[modelKey(m)] {
				t.Fatalf("trial %d: model %v missing from stream %v\nprogram:\n%s", trial, m, first, p)
			}
		}
	}
}

// TestModelsSortedOption documents the ordering contract: Models keeps
// Enumerate's deterministic stream order, and a slices.Compare sort of it
// gives the lexicographic order over the same model set.
func TestModelsSortedOption(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		p := randomGroundProgramClean(rng, 7)
		plain, err := Models(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sorted := slices.Clone(plain)
		slices.SortFunc(sorted, func(a, b Model) int { return slices.Compare(a, b) })
		for i := 1; i < len(sorted); i++ {
			if slices.Compare(sorted[i-1], sorted[i]) >= 0 {
				t.Fatalf("trial %d: sorted output out of order at %d: %v", trial, i, sorted)
			}
		}
		keys := map[string]bool{}
		for _, m := range plain {
			keys[modelKey(m)] = true
		}
		for _, m := range sorted {
			if !keys[modelKey(m)] {
				t.Fatalf("trial %d: sorted model %v missing from plain stream", trial, m)
			}
		}
		// And the stream order itself is reproducible.
		again, err := Models(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, again) {
			t.Fatalf("trial %d: stream order not reproducible", trial)
		}
	}
}

// TestComponentDecomposition checks the split directly: independent choices
// land in separate components, core facts stay out of every component, and
// an atom-free ground denial marks the program inconsistent.
func TestComponentDecomposition(t *testing.T) {
	gp := groundProgram(t, &logic.Program{
		Facts: []term.Atom{atom("seed"), atom("lonely")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
			{Head: []term.Atom{atom("c"), atom("d")}},
		},
	})
	core, comps, inconsistent := decompose(gp)
	if inconsistent {
		t.Fatal("program wrongly marked inconsistent")
	}
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	// The grounder drops fact atoms from rule bodies, so both facts are
	// core facts and the components are exactly the disjunction pairs.
	names := make([]string, len(core))
	for i, a := range core {
		names[i] = gp.Atoms[a].String()
	}
	if len(core) != 2 {
		t.Fatalf("core facts = %v, want [lonely seed]", names)
	}
	total := 0
	for _, c := range comps {
		if len(c.atoms) != 2 {
			t.Fatalf("component atom count = %d, want 2", len(c.atoms))
		}
		total += len(c.atoms)
	}
	if total != 4 { // a, b, c, d
		t.Fatalf("component atoms = %d, want 4", total)
	}

	// A hand-built program may repeat a fact id; core facts (and hence
	// every model) must stay duplicate-free.
	dupFacts := groundProgram(t, &logic.Program{Facts: []term.Atom{atom("p")}})
	dupFacts.Facts = append(dupFacts.Facts, dupFacts.Facts[0])
	core, _, _ = decompose(dupFacts)
	if len(core) != 1 {
		t.Fatalf("core facts with duplicated fact id = %v, want one entry", core)
	}

	// An instantiated denial with an empty body is an inconsistency marker.
	_, _, inconsistent = decompose(groundProgram(t, &logic.Program{
		Facts: []term.Atom{atom("p"), atom("q")},
		Rules: []logic.Rule{{Pos: []term.Atom{atom("p"), atom("q")}}},
	}))
	if !inconsistent {
		t.Fatal("violated ground denial not detected")
	}
}

// TestSolverIncrementalAssumptions drives the CDCL core directly through
// the incremental interface: clauses added between solves persist, and
// assumption sets flip satisfiability without touching the clause set.
func TestSolverIncrementalAssumptions(t *testing.T) {
	s := newSolver(3)
	s.addClause([]int{pos(0), pos(1)})
	s.addClause([]int{neg(0), pos(2)})
	if !s.solveWith(nil) {
		t.Fatal("satisfiable base reported UNSAT")
	}
	if s.solveWith([]int{neg(0), neg(1)}) {
		t.Fatal("assumptions ¬a,¬b must falsify (a ∨ b)")
	}
	if !s.solveWith([]int{pos(0)}) {
		t.Fatal("assuming a must stay SAT")
	}
	if s.assign[2] != 1 {
		t.Fatal("a must propagate c through (¬a ∨ c)")
	}
	// The assumption is gone on the next call: ¬c back-propagates ¬a, b.
	if !s.solveWith([]int{neg(2)}) {
		t.Fatal("assuming ¬c must stay SAT")
	}
	if s.assign[0] != 0 || s.assign[1] != 1 {
		t.Fatalf("model under ¬c = %v, want ¬a, b", s.assign)
	}
	// An incremental clause narrows all later solves.
	s.addClause([]int{neg(1)})
	if s.solveWith([]int{neg(0)}) {
		t.Fatal("after adding ¬b, assuming ¬a must be UNSAT")
	}
	if !s.solveWith(nil) {
		t.Fatal("a, ¬b, c must remain satisfiable")
	}
	if s.assign[0] != 1 || s.assign[1] != 0 || s.assign[2] != 1 {
		t.Fatalf("final model = %v, want a, ¬b, c", s.assign)
	}
}

// TestSolverLearnsAcrossSolves pins the incremental learning behavior on a
// pigeonhole instance: the UNSAT result must be reproducible from the same
// solver instance (learned clauses must never change satisfiability).
func TestSolverLearnsAcrossSolves(t *testing.T) {
	varOf := func(p, h int) int { return p*3 + h }
	s := newSolver(12)
	for p := 0; p < 4; p++ {
		s.addClause([]int{pos(varOf(p, 0)), pos(varOf(p, 1)), pos(varOf(p, 2))})
	}
	for h := 0; h < 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				s.addClause([]int{neg(varOf(p1, h)), neg(varOf(p2, h))})
			}
		}
	}
	if s.solveWith(nil) {
		t.Fatal("pigeonhole 4/3 reported SAT")
	}
	if s.solveWith(nil) {
		t.Fatal("pigeonhole 4/3 flipped to SAT on re-solve")
	}
	// Restricting to 3 pigeons by assumption is satisfiable.
	if !s.ok {
		// UNSAT was established at level 0: nothing more to check.
		return
	}
	t.Fatal("level-0 UNSAT must latch solver.ok = false")
}

// groundAtom reads a ground program atom as a fact.
func groundAtom(a term.Atom) relational.Fact {
	args := make(relational.Tuple, len(a.Args))
	for i, t := range a.Args {
		args[i] = t.Const
	}
	return relational.Fact{Pred: a.Pred, Args: args}
}
