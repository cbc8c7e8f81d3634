package stable

import (
	"repro/internal/depgraph"
	"repro/internal/ground"
)

// This file implements Section 6: head-cycle-freeness (Ben-Eliyahu &
// Dechter) and the shift transformation sh(Π) that turns an HCF disjunctive
// program into a normal program with the same stable models, dropping the
// data complexity of query evaluation from Π₂ᵖ to coNP.

// DependencyGraph builds the positive atom dependency graph of the ground
// program: an edge from every positive body atom to every head atom of the
// same rule.
func DependencyGraph(p *ground.Program) [][]int {
	adj := make([][]int, p.NumAtoms())
	for _, r := range p.Rules {
		for _, b := range r.Pos {
			adj[b] = append(adj[b], r.Head...)
		}
	}
	return adj
}

// IsHCF reports whether the ground program is head-cycle-free: no rule has
// two distinct head atoms in the same strongly connected component of the
// positive dependency graph (SCCs via depgraph.SCC).
func IsHCF(p *ground.Program) bool {
	comp := depgraph.SCC(DependencyGraph(p))
	for _, r := range p.Rules {
		for i := 0; i < len(r.Head); i++ {
			for j := i + 1; j < len(r.Head); j++ {
				if r.Head[i] != r.Head[j] && comp[r.Head[i]] == comp[r.Head[j]] {
					return false
				}
			}
		}
	}
	return true
}

// Shift applies the shift transformation: every disjunctive rule
// a1 v ... v an :- B becomes the n normal rules ai :- B, not a(j≠i).
// For HCF programs sh(Π) has exactly the stable models of Π
// (Ben-Eliyahu & Dechter 1994); for non-HCF programs it may lose models.
func Shift(p *ground.Program) *ground.Program {
	out := &ground.Program{
		Atoms: p.Atoms,
		Facts: append([]int(nil), p.Facts...),
	}
	for _, r := range p.Rules {
		if len(r.Head) <= 1 {
			out.Rules = append(out.Rules, r)
			continue
		}
		for i := range r.Head {
			neg := append([]int(nil), r.Neg...)
			for j, h := range r.Head {
				if j != i {
					neg = append(neg, h)
				}
			}
			out.Rules = append(out.Rules, ground.Rule{
				Head: []int{r.Head[i]},
				Pos:  append([]int(nil), r.Pos...),
				Neg:  neg,
			})
		}
	}
	return out
}
