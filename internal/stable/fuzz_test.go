package stable

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

// decodeProgram reads a small ground program and its answer atoms from
// fuzz bytes: data[0] sizes the atom table (2..8 atoms), data[1] marks the
// answer atoms and data[2] the facts (one bit per atom), and every further
// three bytes are one rule's head, positive and negative body masks. A
// literal repeated in two parts of a rule keeps only its first part.
func decodeProgram(data []byte) (*ground.Program, []bool) {
	mask := func(i int) uint8 {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 2 + int(mask(0))%7
	p := &ground.Program{}
	answer := make([]bool, n)
	for a := 0; a < n; a++ {
		p.Atoms = append(p.Atoms, relational.Fact{Pred: fmt.Sprintf("p%d", a)})
		answer[a] = mask(1)&(1<<a) != 0
		if mask(2)&(1<<a) != 0 {
			p.Facts = append(p.Facts, a)
		}
	}
	atoms := func(m uint8) []int {
		var out []int
		for a := 0; a < n; a++ {
			if m&(1<<a) != 0 {
				out = append(out, a)
			}
		}
		return out
	}
	for i := 3; i+2 < len(data) && len(p.Rules) < 12; i += 3 {
		head, pos, neg := data[i], data[i+1], data[i+2]
		pos &^= head
		neg &^= head | pos
		p.Rules = append(p.Rules, ground.Rule{Head: atoms(head), Pos: atoms(pos), Neg: atoms(neg)})
	}
	return p, answer
}

// FuzzCautiousComponents checks the per-component pass against the
// combined model stream: the answer atoms true in every stable model are
// the answer atoms among the core facts plus, per component, those true in
// all of its models; the number of stable models is the product of the
// per-component model counts; and the program has no stable model exactly
// when Solve reports one component without any.
func FuzzCautiousComponents(f *testing.F) {
	f.Add([]byte{4, 0b1111, 0b0001, 0b0110, 0b0001, 0, 0b1000, 0, 0b0100})        // a choice feeding a negation
	f.Add([]byte{2, 0b11, 0, 0b01, 0, 0b10, 0b10, 0, 0b01})                       // even negation loop
	f.Add([]byte{5, 0b11110, 0b00001, 0b00110, 0b00001, 0, 0b11000, 0b00001, 0})  // two choices
	f.Add([]byte{3, 0b011, 0b011, 0, 0b011, 0})                                   // violated denial
	f.Add([]byte{4, 0b111, 0, 0b001, 0, 0b010, 0b010, 0, 0b100, 0b100, 0, 0b001}) // odd negation loop
	f.Fuzz(func(t *testing.T, data []byte) {
		p, answer := decodeProgram(data)
		var models []Model
		if err := Enumerate(p, Options{}, func(m Model) bool {
			models = append(models, m)
			return true
		}); err != nil {
			t.Fatalf("Enumerate: %v\n%s", err, p)
		}
		var want []int
		for _, a := range Cautious(models) {
			if answer[a] {
				want = append(want, a)
			}
		}

		cs := Decompose(p)
		var got []int
		for _, a := range cs.Core() {
			if answer[a] {
				got = append(got, a)
			}
		}
		all := make([]int, cs.Len())
		held := make([][]int, cs.Len())
		for c := range all {
			all[c] = c
			for _, a := range cs.Atoms(c) {
				if answer[a] {
					held[c] = append(held[c], a)
				}
			}
		}
		counts := make([]int, cs.Len())
		ok, err := cs.Solve(context.Background(), Options{}, all, func(c int, m Model) bool {
			counts[c]++
			held[c] = slices.DeleteFunc(held[c], func(a int) bool { return !m.Contains(a) })
			return true
		})
		if err != nil {
			t.Fatalf("Solve: %v\n%s", err, p)
		}
		if ok != (len(models) > 0) {
			t.Fatalf("Solve ok = %v with %d stable models\n%s", ok, len(models), p)
		}
		if !ok {
			return
		}
		product := 1
		for c, k := range counts {
			product *= k
			got = append(got, held[c]...)
		}
		slices.Sort(got)
		if product != len(models) {
			t.Fatalf("per-component counts %v multiply to %d, want %d models\n%s", counts, product, len(models), p)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("per-component cautious answer atoms %v, want %v\n%s", got, want, p)
		}
	})
}

// propositional reads a decoded program as a propositional logic program:
// one zero-arity atom per atom name, every fact and rule as written.
func propositional(p *ground.Program) *logic.Program {
	atoms := func(ids []int) []term.Atom {
		var out []term.Atom
		for _, a := range ids {
			out = append(out, term.Atom{Pred: p.Atoms[a].Pred})
		}
		return out
	}
	lp := &logic.Program{Facts: atoms(p.Facts)}
	for _, r := range p.Rules {
		lp.Rules = append(lp.Rules, logic.Rule{Head: atoms(r.Head), Pos: atoms(r.Pos), Neg: atoms(r.Neg)})
	}
	return lp
}

// namedModels renders models as a sorted list of sorted atom-name sets, so
// models of two numberings of one program compare equal.
func namedModels(atoms []relational.Fact, ms []Model) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		ns := make([]string, len(m))
		for j, a := range m {
			ns[j] = atoms[a].String()
		}
		slices.Sort(ns)
		out[i] = strings.Join(ns, " ")
	}
	slices.Sort(out)
	return out
}

// checkFold grounds the decoded program with ground.Ground, which folds
// the rules its facts decide, and checks that the folded program has
// exactly the stable models brute force finds for the program as decoded.
// It reports whether the fold decided anything.
func checkFold(t *testing.T, data []byte) bool {
	t.Helper()
	p, _ := decodeProgram(data)
	gp, err := ground.Ground(propositional(p))
	if err != nil {
		t.Fatalf("Ground: %v\n%s", err, p)
	}
	ms, err := Models(gp, Options{})
	if err != nil {
		t.Fatalf("Models: %v\n%s", err, gp)
	}
	got, want := namedModels(gp.Atoms, ms), namedModels(p.Atoms, bruteStable(p))
	if !slices.Equal(got, want) {
		t.Fatalf("folded program has models %q, want %q\n--- program\n%s--- folded\n%s", got, want, p, gp)
	}
	return len(gp.Facts) > len(p.Facts)
}

// FuzzFoldPreservesModels checks the grounder's fold of decided rules
// against brute force: grounding keeps the stable models of the program.
func FuzzFoldPreservesModels(f *testing.F) {
	f.Add([]byte{4, 0, 0b0001, 0b0010, 0b0001, 0, 0b0100, 0b0010, 0b1000}) // a chain of derived facts blocking a rule
	f.Add([]byte{3, 0, 0, 0b001, 0, 0, 0b010, 0, 0b001, 0b100, 0b010, 0})  // a fact, its negation and a dependent rule
	f.Add([]byte{3, 0, 0b001, 0b110, 0b001, 0, 0, 0b010, 0b100})           // a choice on a fact with a constraint
	f.Add([]byte{2, 0, 0, 0b01, 0b10, 0, 0b10, 0b01, 0})                   // a positive loop nothing founds
	f.Add([]byte{3, 0, 0b001, 0b010, 0, 0b100, 0, 0b001, 0b010})           // an unsupported atom under negation
	f.Fuzz(func(t *testing.T, data []byte) { checkFold(t, data) })
}

// TestFoldMatchesBruteForce runs the fold oracle on seeded random programs
// biased towards what the fold decides: few facts, mostly single-head
// rules and short bodies.
func TestFoldMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bits := func(n, k int) byte {
		var m byte
		for i := 0; i < k; i++ {
			m |= 1 << rng.Intn(n)
		}
		return m
	}
	decided := 0
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(7)
		data := []byte{byte(n - 2), 0, bits(n, rng.Intn(3))}
		for r := 1 + rng.Intn(10); r > 0; r-- {
			heads := 1
			switch x := rng.Intn(10); {
			case x == 0:
				heads = 0
			case x < 3:
				heads = 2
			}
			data = append(data, bits(n, heads), bits(n, rng.Intn(3)), bits(n, rng.Intn(2)))
		}
		if checkFold(t, data) {
			decided++
		}
	}
	t.Logf("the fold decided an atom in %d of 500 programs", decided)
	if decided < 100 {
		t.Fatalf("the fold decided an atom in only %d of 500 programs; the oracle is near vacuous", decided)
	}
}
