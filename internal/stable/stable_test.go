package stable

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

func v(name string) term.T                       { return term.V(name) }
func atom(pred string, args ...term.T) term.Atom { return term.NewAtom(pred, args...) }
func c(s string) term.T                          { return term.CStr(s) }

func groundProgram(t *testing.T, p *logic.Program) *ground.Program {
	t.Helper()
	gp, err := ground.Ground(p)
	if err != nil {
		t.Fatal(err)
	}
	return gp
}

// modelNames renders models as sorted atom-name sets for readable asserts.
func modelNames(gp *ground.Program, ms []Model) [][]string {
	out := make([][]string, len(ms))
	for i, m := range ms {
		for _, a := range m {
			out[i] = append(out[i], gp.Atoms[a].String())
		}
	}
	return out
}

func mustModels(t *testing.T, gp *ground.Program) []Model {
	t.Helper()
	ms, err := Models(gp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func namesContain(t *testing.T, got [][]string, want []string) bool {
	t.Helper()
	for _, m := range got {
		if reflect.DeepEqual(m, want) {
			return true
		}
	}
	return false
}

func TestEvenNegationLoop(t *testing.T) {
	// a :- not b. b :- not a. => two stable models {a}, {b}.
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a")}, Pos: []term.Atom{atom("seed")}, Neg: []term.Atom{atom("b")}},
			{Head: []term.Atom{atom("b")}, Pos: []term.Atom{atom("seed")}, Neg: []term.Atom{atom("a")}},
		},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 2 {
		t.Fatalf("models = %v", modelNames(gp, ms))
	}
	got := modelNames(gp, ms)
	if !namesContain(t, got, []string{"seed", "a"}) && !namesContain(t, got, []string{"a", "seed"}) {
		t.Errorf("missing {seed,a}: %v", got)
	}
}

func TestOddNegationLoopInconsistent(t *testing.T) {
	// a :- not a. => no stable model.
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a")}, Pos: []term.Atom{atom("seed")}, Neg: []term.Atom{atom("a")}},
		},
	}
	gp := groundProgram(t, p)
	if ms := mustModels(t, gp); len(ms) != 0 {
		t.Errorf("models = %v", modelNames(gp, ms))
	}
}

func TestDisjunctiveSplit(t *testing.T) {
	// a v b. => stable models {a} and {b}; never {a,b} (not minimal).
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
		},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 2 {
		t.Fatalf("models = %v", modelNames(gp, ms))
	}
	for _, m := range ms {
		if len(m) != 2 { // seed + one disjunct
			t.Errorf("non-minimal model %v", modelNames(gp, []Model{m}))
		}
	}
}

func TestDisjunctionWithDependence(t *testing.T) {
	// a v b. a :- b. b :- a. => the single stable model {a,b}
	// (not HCF: shifting loses it).
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
			{Head: []term.Atom{atom("a")}, Pos: []term.Atom{atom("b")}},
			{Head: []term.Atom{atom("b")}, Pos: []term.Atom{atom("a")}},
		},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 1 || len(ms[0]) != 3 {
		t.Fatalf("models = %v", modelNames(gp, ms))
	}
	if IsHCF(gp) {
		t.Error("program must not be HCF")
	}
	shifted := Shift(gp)
	sms := mustModels(t, shifted)
	if len(sms) != 0 {
		t.Errorf("shifted models = %v (shift must lose the non-HCF model)", modelNames(shifted, sms))
	}
}

func TestConstraintPrunesModels(t *testing.T) {
	// a v b. :- b. => only {a}.
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
			{Pos: []term.Atom{atom("b")}},
		},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 1 {
		t.Fatalf("models = %v", modelNames(gp, ms))
	}
	got := modelNames(gp, ms)[0]
	for _, name := range got {
		if name == "b" {
			t.Errorf("b survives its constraint: %v", got)
		}
	}
}

func TestStratifiedUnique(t *testing.T) {
	// Classic stratified program has exactly one stable model.
	p := &logic.Program{
		Facts: []term.Atom{atom("edge", c("a"), c("b")), atom("edge", c("b"), c("c"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("reach", v("x"), v("y"))}, Pos: []term.Atom{atom("edge", v("x"), v("y"))}},
			{
				Head: []term.Atom{atom("reach", v("x"), v("z"))},
				Pos:  []term.Atom{atom("reach", v("x"), v("y")), atom("edge", v("y"), v("z"))},
			},
			{
				Head: []term.Atom{atom("unreached", v("x"), v("y"))},
				Pos:  []term.Atom{atom("edge", v("x"), v("y")), atom("edge", v("y"), v("x"))},
			},
		},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	if len(ms) != 1 {
		t.Fatalf("models = %v", modelNames(gp, ms))
	}
	names := modelNames(gp, ms)[0]
	has := func(s string) bool {
		for _, n := range names {
			if n == s {
				return true
			}
		}
		return false
	}
	if !has("reach(a,c)") || has("unreached(a,b)") {
		t.Errorf("model = %v", names)
	}
}

func TestCautiousAndBrave(t *testing.T) {
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
			{Head: []term.Atom{atom("cm")}, Pos: []term.Atom{atom("a")}},
			{Head: []term.Atom{atom("cm")}, Pos: []term.Atom{atom("b")}},
		},
	}
	gp := groundProgram(t, p)
	ms := mustModels(t, gp)
	caut := Cautious(ms)
	// cm and seed are cautious; a and b only brave (true in some model).
	cautNames := map[string]bool{}
	for _, a := range caut {
		cautNames[gp.Atoms[a].String()] = true
	}
	if !cautNames["cm"] || !cautNames["seed"] || cautNames["a"] || cautNames["b"] {
		t.Errorf("cautious = %v", cautNames)
	}
	brave := map[string]bool{}
	for _, m := range ms {
		for _, a := range m {
			brave[gp.Atoms[a].String()] = true
		}
	}
	if len(brave) != 4 || !brave["a"] || !brave["b"] {
		t.Errorf("brave = %v", brave)
	}
	if Cautious(nil) != nil {
		t.Error("cautious of no models must be nil")
	}
}

func TestHCFDetection(t *testing.T) {
	// a v b :- seed. (no positive cycle between a and b) => HCF.
	p := &logic.Program{
		Facts: []term.Atom{atom("seed")},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("a"), atom("b")}, Pos: []term.Atom{atom("seed")}},
		},
	}
	gp := groundProgram(t, p)
	if !IsHCF(gp) {
		t.Error("disjunctive program without head cycles must be HCF")
	}
	// Shift preserves the stable models for HCF programs.
	ms := mustModels(t, gp)
	sms := mustModels(t, Shift(gp))
	if len(ms) != len(sms) {
		t.Errorf("HCF shift changed model count: %d vs %d", len(ms), len(sms))
	}
}

// --- brute-force cross-check -------------------------------------------------

// bruteStable enumerates all subsets and checks the Gelfond–Lifschitz
// condition directly.
func bruteStable(p *ground.Program) []Model {
	n := p.NumAtoms()
	var out []Model
	for mask := 0; mask < 1<<n; mask++ {
		m := Model{}
		for a := 0; a < n; a++ {
			if mask&(1<<a) != 0 {
				m = append(m, a)
			}
		}
		if isClassicalModel(p, m) && bruteMinimalReduct(p, m) {
			out = append(out, m)
		}
	}
	return out
}

func isClassicalModel(p *ground.Program, m Model) bool {
	for _, f := range p.Facts {
		if !m.Contains(f) {
			return false
		}
	}
	for _, r := range p.Rules {
		bodyTrue := true
		for _, b := range r.Pos {
			if !m.Contains(b) {
				bodyTrue = false
				break
			}
		}
		for _, b := range r.Neg {
			if m.Contains(b) {
				bodyTrue = false
				break
			}
		}
		if !bodyTrue {
			continue
		}
		headTrue := false
		for _, h := range r.Head {
			if m.Contains(h) {
				headTrue = true
				break
			}
		}
		if !headTrue {
			return false
		}
	}
	return true
}

// bruteMinimalReduct checks that no proper subset of m models the reduct.
func bruteMinimalReduct(p *ground.Program, m Model) bool {
	var reduct []ground.Rule
	for _, r := range p.Rules {
		blocked := false
		for _, b := range r.Neg {
			if m.Contains(b) {
				blocked = true
				break
			}
		}
		if !blocked {
			reduct = append(reduct, ground.Rule{Head: r.Head, Pos: r.Pos})
		}
	}
	reductProg := &ground.Program{Atoms: p.Atoms, Facts: p.Facts, Rules: reduct}
	k := len(m)
	for sub := 0; sub < 1<<k; sub++ {
		if sub == (1<<k)-1 {
			continue // the full set
		}
		var mm Model
		for i := 0; i < k; i++ {
			if sub&(1<<i) != 0 {
				mm = append(mm, m[i])
			}
		}
		if isClassicalModel(reductProg, mm) {
			return false
		}
	}
	return true
}

func overlap(a, b []int) bool {
	set := map[int]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return true
		}
	}
	return false
}

func TestModelsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		p := randomGroundProgramClean(rng, 6)
		got, err := Models(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteStable(p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d models %v, want %d %v\nprogram:\n%s",
				trial, len(got), got, len(want), want, p)
		}
		wantKeys := map[string]bool{}
		for _, m := range want {
			wantKeys[modelKey(m)] = true
		}
		for _, m := range got {
			if !wantKeys[modelKey(m)] {
				t.Fatalf("trial %d: spurious model %v, want %v\nprogram:\n%s", trial, m, want, p)
			}
		}
	}
}

func TestShiftEquivalenceOnHCF(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for trial := 0; trial < 600 && checked < 200; trial++ {
		p := randomGroundProgramClean(rng, 6)
		if !IsHCF(p) {
			continue
		}
		checked++
		got, err := Models(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shifted, err := Models(Shift(p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(shifted) {
			t.Fatalf("trial %d: HCF shift changed models: %v vs %v\nprogram:\n%s", trial, got, shifted, p)
		}
		keys := map[string]bool{}
		for _, m := range got {
			keys[modelKey(m)] = true
		}
		for _, m := range shifted {
			if !keys[modelKey(m)] {
				t.Fatalf("trial %d: shifted model %v missing from original\nprogram:\n%s", trial, m, p)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d HCF programs sampled", checked)
	}
}

func modelKey(m Model) string {
	out := ""
	for _, a := range m {
		out += string(rune('0' + a))
	}
	return out
}

// randomGroundProgramClean is randomGroundProgram with names usable by
// Program.String (Atoms left nil-safe).
func randomGroundProgramClean(rng *rand.Rand, nAtoms int) *ground.Program {
	p := &ground.Program{}
	for a := 0; a < nAtoms; a++ {
		p.Atoms = append(p.Atoms, relational.Fact{Pred: string(rune('a' + a))})
	}
	for a := 0; a < nAtoms; a++ {
		if rng.Intn(4) == 0 {
			p.Facts = append(p.Facts, a)
		}
	}
	nRules := 2 + rng.Intn(5)
	for i := 0; i < nRules; i++ {
		var r ground.Rule
		for a := 0; a < nAtoms; a++ {
			switch rng.Intn(6) {
			case 0:
				r.Head = append(r.Head, a)
			case 1:
				r.Pos = append(r.Pos, a)
			case 2:
				if rng.Intn(2) == 0 {
					r.Neg = append(r.Neg, a)
				}
			}
		}
		if overlap(r.Head, r.Pos) || overlap(r.Head, r.Neg) || overlap(r.Pos, r.Neg) {
			continue
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}
