package stable

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ground"
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
		p.Names = append(p.Names, fmt.Sprintf("p%d", a))
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
