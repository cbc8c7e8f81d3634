package ground

// Differential tests pinning the grounding rewrite's determinism contract:
// the emitted program is a pure function of the input program — byte-
// identical across the naive and semi-naive fixpoints and the
// GroundWith+Extend split vs a monolithic grounding — checked over
// randomized programs with recursion, disjunction, negation, constraints,
// and builtins.

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// progGen generates random safe programs over a small fixed schema: base
// relations e/2, f/1, g/2, h/1 (facts) and derived relations p/1, q/2, r/1
// (rule heads), sharing a four-constant domain so joins actually join.
type progGen struct {
	rng *rand.Rand
}

type predSig struct {
	name  string
	arity int
}

var (
	genBase    = []predSig{{"e", 2}, {"f", 1}, {"g", 2}, {"h", 1}}
	genDerived = []predSig{{"p", 1}, {"q", 2}, {"r", 1}}
	genConsts  = []term.T{term.CStr("a"), term.CStr("b"), term.CStr("c"), term.CNull()}
	genVars    = []string{"x", "y", "z", "w"}
)

func (g *progGen) constant() term.T { return genConsts[g.rng.Intn(len(genConsts))] }

// bodyAtom builds an atom over sig mixing fresh variables and constants.
func (g *progGen) bodyAtom(sig predSig) term.Atom {
	args := make([]term.T, sig.arity)
	for i := range args {
		if g.rng.Intn(100) < 70 {
			args[i] = term.V(genVars[g.rng.Intn(len(genVars))])
		} else {
			args[i] = g.constant()
		}
	}
	return term.Atom{Pred: sig.name, Args: args}
}

// headAtom builds an atom whose variables all come from bound (safety).
func (g *progGen) headAtom(sig predSig, bound []string) term.Atom {
	args := make([]term.T, sig.arity)
	for i := range args {
		if len(bound) > 0 && g.rng.Intn(100) < 70 {
			args[i] = term.V(bound[g.rng.Intn(len(bound))])
		} else {
			args[i] = g.constant()
		}
	}
	return term.Atom{Pred: sig.name, Args: args}
}

func (g *progGen) rule(preds []predSig) logic.Rule {
	var r logic.Rule
	npos := 1 + g.rng.Intn(3)
	for i := 0; i < npos; i++ {
		r.Pos = append(r.Pos, g.bodyAtom(preds[g.rng.Intn(len(preds))]))
	}
	var bound []string
	seen := map[string]bool{}
	for _, a := range r.Pos {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				bound = append(bound, t.Var)
			}
		}
	}
	if g.rng.Intn(100) < 85 { // 15% headless constraints
		nhead := 1 + g.rng.Intn(2)
		for i := 0; i < nhead; i++ {
			r.Head = append(r.Head, g.headAtom(genDerived[g.rng.Intn(len(genDerived))], bound))
		}
	}
	if g.rng.Intn(100) < 40 {
		r.Neg = append(r.Neg, g.headAtom(preds[g.rng.Intn(len(preds))], bound))
	}
	if len(bound) > 0 && g.rng.Intn(100) < 50 {
		l := term.V(bound[g.rng.Intn(len(bound))])
		var rhs term.T
		if len(bound) > 1 && g.rng.Intn(2) == 0 {
			rhs = term.V(bound[g.rng.Intn(len(bound))])
		} else {
			rhs = g.constant()
		}
		r.Builtins = append(r.Builtins, term.Builtin{Op: term.NEQ, L: l, R: rhs})
	}
	return r
}

func (g *progGen) program() *logic.Program {
	p := &logic.Program{}
	nfacts := 4 + g.rng.Intn(10)
	for i := 0; i < nfacts; i++ {
		sig := genBase[g.rng.Intn(len(genBase))]
		args := make([]term.T, sig.arity)
		for j := range args {
			args[j] = g.constant()
		}
		p.Facts = append(p.Facts, term.Atom{Pred: sig.name, Args: args})
	}
	all := append(append([]predSig(nil), genBase...), genDerived...)
	nrules := 2 + g.rng.Intn(6)
	for i := 0; i < nrules; i++ {
		p.Rules = append(p.Rules, g.rule(all))
	}
	return p
}

// extRules generates extension rules in the shape of query rules: heads over
// fresh ans*/k relations, bodies over the base schema and earlier ans
// relations (chaining), with optional negation, builtins and constraints.
func (g *progGen) extRules() []logic.Rule {
	ansSigs := []predSig{{"ans1", 1}, {"ans2", 2}}
	bodyPreds := append(append([]predSig(nil), genBase...), genDerived...)
	var rules []logic.Rule
	for i, sig := range ansSigs {
		nr := 1 + g.rng.Intn(2)
		for j := 0; j < nr; j++ {
			r := g.rule(bodyPreds)
			r.Head = []term.Atom{g.headAtom(sig, posVars(r))}
			rules = append(rules, r)
		}
		bodyPreds = append(bodyPreds, ansSigs[i]) // later rules may chain
	}
	if g.rng.Intn(2) == 0 { // extension constraint
		r := g.rule(bodyPreds)
		r.Head = nil
		rules = append(rules, r)
	}
	return rules
}

func posVars(r logic.Rule) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range r.Pos {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// TestDifferentialFixpointsAndWorkers pins the core determinism invariant:
// for random programs, the semi-naive and naive fixpoints render the same
// program byte for byte.
func TestDifferentialFixpointsAndWorkers(t *testing.T) {
	totalRules := 0
	for seed := int64(0); seed < 60; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(seed))}
		p := g.program()
		ref, err := GroundWith(p, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		totalRules += len(ref.Rules)
		gp, err := GroundWith(p, Options{naive: true})
		if err != nil {
			t.Fatalf("seed %d naive: %v", seed, err)
		}
		if want, got := ref.String(), gp.String(); got != want {
			t.Fatalf("seed %d: naive grounding diverges from semi-naive:\n--- want\n%s\n--- got\n%s",
				seed, want, got)
		}
	}
	if totalRules == 0 {
		t.Fatal("generator produced no ground rules across all seeds; differential is vacuous")
	}
}

// TestDifferentialExtendVsMonolithic pins the reuse contract: grounding the
// base once and extending it with query-shaped rules is byte-identical —
// same string, atom table, and rule list — to a monolithic grounding of the
// combined program.
func TestDifferentialExtendVsMonolithic(t *testing.T) {
	sawExtRules := false
	for seed := int64(0); seed < 40; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(1000 + seed))}
		base := g.program()
		ext := g.extRules()

		mono, err := GroundWith(&logic.Program{
			Facts: base.Facts,
			Rules: append(append([]logic.Rule(nil), base.Rules...), ext...),
		}, Options{})
		if err != nil {
			t.Fatalf("seed %d: monolithic: %v", seed, err)
		}
		bg, err := GroundWith(base, Options{})
		if err != nil {
			t.Fatalf("seed %d: base: %v", seed, err)
		}
		baseStr := bg.String()
		got, err := bg.Extend(ext)
		if err != nil {
			t.Fatalf("seed %d: extend: %v", seed, err)
		}
		if got.String() != mono.String() {
			t.Fatalf("seed %d: extend diverges from monolithic:\n--- monolithic\n%s\n--- extend\n%s",
				seed, mono.String(), got.String())
		}
		if len(got.Atoms) != len(mono.Atoms) {
			t.Fatalf("seed %d: atom tables differ: %d vs %d atoms", seed, len(got.Atoms), len(mono.Atoms))
		}
		for i := range got.Atoms {
			if !got.Atoms[i].Equal(mono.Atoms[i]) {
				t.Fatalf("seed %d: atom id %d differs: %v vs %v", seed, i, got.Atoms[i], mono.Atoms[i])
			}
		}
		if len(got.Rules) > len(bg.Rules) {
			sawExtRules = true
		}
		if bg.String() != baseStr {
			t.Fatalf("seed %d: Extend mutated its base program", seed)
		}
	}
	if !sawExtRules {
		t.Fatal("no extension produced ground rules; differential is vacuous")
	}
}

// TestExtendMatchesAtomIDs checks that base atom ids survive extension
// unchanged — the property the cautious engine's model readers rely on.
func TestExtendMatchesAtomIDs(t *testing.T) {
	g := &progGen{rng: rand.New(rand.NewSource(7))}
	base := g.program()
	bg, err := GroundWith(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := bg.Extend(g.extRules())
	if err != nil {
		t.Fatal(err)
	}
	for id, f := range bg.Atoms {
		got, ok := atomID(ep, f)
		if !ok || got != id {
			t.Fatalf("base atom %v: id %d became (%d, %v) in extension", f, id, got, ok)
		}
	}
}

// --- hot-path allocation pins ----------------------------------------------
//
// The grounder's inner loops — atom interning, possible-set membership, rule
// dedup, atom instantiation — must not allocate on hits: no string keys, no
// fmt, no per-probe garbage.

func testFacts(n int) []relational.Fact {
	fs := make([]relational.Fact, n)
	for i := range fs {
		fs[i] = relational.F("e", value.Int(int64(i)), value.Str("v"))
	}
	return fs
}

func TestInternerLookupNoAlloc(t *testing.T) {
	in := newInterner()
	fs := testFacts(64)
	for _, f := range fs {
		in.intern(f, true)
	}
	probe := fs[37]
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := in.lookupHash(probe, probe.Hash()); !ok {
			t.Fatal("interned atom not found")
		}
	}); n != 0 {
		t.Errorf("interner lookup allocates %.1f per probe", n)
	}
}

func TestFactSetMembershipNoAlloc(t *testing.T) {
	s := newFactSet()
	fs := testFacts(64)
	for _, f := range fs {
		s.add(f)
	}
	hit, miss := fs[11], relational.F("e", value.Int(9999), value.Str("v"))
	if n := testing.AllocsPerRun(200, func() {
		if !s.has(hit) || s.has(miss) {
			t.Fatal("factSet membership wrong")
		}
	}); n != 0 {
		t.Errorf("factSet.has allocates %.1f per probe", n)
	}
}

func TestRuleSetDuplicateNoAlloc(t *testing.T) {
	rs := newRuleSet()
	r := Rule{Head: []int{3}, Pos: []int{1, 2}, Neg: []int{4}}
	rs.add(r)
	if n := testing.AllocsPerRun(200, func() {
		if rs.add(r) {
			t.Fatal("duplicate rule accepted")
		}
	}); n != 0 {
		t.Errorf("ruleSet duplicate check allocates %.1f per probe", n)
	}
}

func TestGroundAtomIntoNoAlloc(t *testing.T) {
	a := term.NewAtom("e", term.V("x"), term.V("y"))
	subst := term.Subst{"x": value.Str("a"), "y": value.Str("b")}
	scratch := make(relational.Tuple, 0, 2)
	if n := testing.AllocsPerRun(200, func() {
		scratch = groundAtomInto(scratch, a, subst)
	}); n != 0 {
		t.Errorf("groundAtomInto allocates %.1f per instantiation", n)
	}
}

// atomID looks up the id of a ground fact in a grounded program's atom
// table.
func atomID(p *Program, f relational.Fact) (int, bool) {
	return p.ext.in.lookupHash(f, f.Hash())
}
