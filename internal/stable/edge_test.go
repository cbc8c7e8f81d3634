package stable

import (
	"reflect"
	"testing"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/term"
)

func TestEmptyProgram(t *testing.T) {
	gp := &ground.Program{}
	ms := mustModels(t, gp)
	if len(ms) != 1 || len(ms[0]) != 0 {
		t.Errorf("empty program models = %v, want one empty model", ms)
	}
}

func TestFactsOnlyProgram(t *testing.T) {
	p := &logic.Program{
		Facts: []term.Atom{atom("p", c("a")), atom("q", c("b"))},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 1 || len(ms[0]) != 2 {
		t.Errorf("facts-only models = %v", modelNames(gp, ms))
	}
}

func TestUnconditionalContradiction(t *testing.T) {
	// A ground constraint with an empty body is unsatisfiable.
	p := &logic.Program{
		Facts: []term.Atom{atom("p", c("a")), atom("q", c("a"))},
		Rules: []logic.Rule{
			{Pos: []term.Atom{atom("p", v("x")), atom("q", v("x"))}},
		},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 0 {
		t.Errorf("contradictory program has models: %v", modelNames(gp, ms))
	}
}

func TestMaxModelsCap(t *testing.T) {
	// a v b; c v d: four stable models, capped at 2.
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
			{Head: []term.Atom{atom("cc"), atom("dd")}, Pos: []term.Atom{atom("seed")}},
		},
	}
	gp := groundProgram(t, p)
	all := mustModels(t, gp)
	if len(all) != 4 {
		t.Fatalf("models = %d, want 4", len(all))
	}
	// A consumer caps the stream by returning false from yield.
	var capped []Model
	if err := Enumerate(gp, Options{}, func(m Model) bool {
		capped = append(capped, m)
		return len(capped) < 2
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(capped, all[:2]) {
		t.Errorf("capped models = %v, want the stream's first two %v", capped, all[:2])
	}
}

func TestCandidateLimit(t *testing.T) {
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
		},
	}
	gp := groundProgram(t, p)
	if _, err := Models(gp, Options{MaxCandidates: 1}); err != ErrCandidateLimit {
		t.Errorf("err = %v, want ErrCandidateLimit", err)
	}
}

func TestChainPropagation(t *testing.T) {
	// A long implication chain exercises unit propagation.
	p := &logic.Program{Facts: []term.Atom{atom("n0")}}
	for i := 0; i < 50; i++ {
		p.Rules = append(p.Rules, logic.Rule{
			Head: []term.Atom{{Pred: "n" + itoa(i+1)}},
			Pos:  []term.Atom{{Pred: "n" + itoa(i)}},
		})
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 1 || len(ms[0]) != 51 {
		t.Errorf("chain model = %v", modelNames(gp, ms))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestChoiceGrid(t *testing.T) {
	// n independent binary choices => 2^n stable models; exercises the
	// blocking-clause enumeration.
	const n = 6
	p := &logic.Program{Facts: []term.Atom{atom("seed")}}
	for i := 0; i < n; i++ {
		p.Rules = append(p.Rules, logic.Rule{
			Head: []term.Atom{{Pred: "l" + itoa(i)}, {Pred: "r" + itoa(i)}},
			Pos:  []term.Atom{atom("seed")},
		})
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 1<<n {
		t.Errorf("models = %d, want %d", len(ms), 1<<n)
	}
}

func TestModelContains(t *testing.T) {
	m := Model{1, 3, 5}
	for _, a := range []int{1, 3, 5} {
		if !m.Contains(a) {
			t.Errorf("Contains(%d) = false", a)
		}
	}
	for _, a := range []int{0, 2, 4, 6} {
		if m.Contains(a) {
			t.Errorf("Contains(%d) = true", a)
		}
	}
}

func TestSATSolverDirect(t *testing.T) {
	// (a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c): unit-propagation-heavy instance.
	clauses := [][]int{
		{pos(0), pos(1)},
		{neg(0), pos(1)},
		{neg(1), pos(2)},
	}
	bits, sat := solveCNF(3, clauses, true)
	if !sat {
		t.Fatal("satisfiable instance reported UNSAT")
	}
	if !bits[1] || !bits[2] {
		t.Errorf("model = %v, want b and c true", bits)
	}
	// Pigeonhole 3 pigeons / 2 holes: UNSAT.
	varOf := func(p, h int) int { return p*2 + h }
	var ph [][]int
	for p := 0; p < 3; p++ {
		ph = append(ph, []int{pos(varOf(p, 0)), pos(varOf(p, 1))})
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				ph = append(ph, []int{neg(varOf(p1, h)), neg(varOf(p2, h))})
			}
		}
	}
	if _, sat := solveCNF(6, ph, false); sat {
		t.Error("pigeonhole 3/2 reported SAT")
	}
}

func TestTautologyClauses(t *testing.T) {
	// A tautological clause (a ∨ ¬a) must be ignored, not break watches.
	clauses := [][]int{
		{pos(0), neg(0)},
		{pos(1)},
	}
	bits, sat := solveCNF(2, clauses, true)
	if !sat || !bits[1] {
		t.Errorf("bits=%v sat=%v", bits, sat)
	}
	// Duplicate literals are deduplicated.
	clauses2 := [][]int{{pos(0), pos(0), pos(0)}}
	if _, sat := solveCNF(1, clauses2, true); !sat {
		t.Error("duplicate-literal clause broke the solver")
	}
	// An empty clause is UNSAT.
	if _, sat := solveCNF(1, [][]int{{}}, true); sat {
		t.Error("empty clause reported SAT")
	}
}

// solveCNF solves a one-shot clause set on a fresh solver, for the direct
// solver tests. preferFalse keeps the solver's default false phase;
// otherwise every variable starts true.
func solveCNF(nVars int, clauses [][]int, preferFalse bool) ([]bool, bool) {
	s := newSolver(nVars)
	if !preferFalse {
		for v := range s.phase {
			s.phase[v] = 1
		}
	}
	for _, c := range clauses {
		if !s.addClause(c) {
			return nil, false
		}
	}
	if !s.solveWith(nil) {
		return nil, false
	}
	model := make([]bool, nVars)
	for v := 0; v < nVars; v++ {
		model[v] = s.assign[v] == 1
	}
	return model, true
}
