package stable

import (
	"context"
	"slices"
	"sort"

	"repro/internal/depgraph"
	"repro/internal/ground"
)

// This file splits a ground program into independent components. Two atoms
// are dependent when they co-occur in a rule (head, positive or negative
// body); the transitive closure of that relation partitions the atoms, and
// no rule spans two parts. Stable models therefore factorize: every stable
// model of the program is the union of one stable model per component plus
// the core facts, and every such union is stable (the Gelfond–Lifschitz
// reduct and its minimality check both factorize over disjoint atom sets).
// The engine exploits this by enumerating components separately — turning
// one 2^(a+b)-model search into two of 2^a and 2^b — and combining the
// per-component models lazily.

// component is one independent fragment of a ground program, re-indexed to
// dense local atom ids (local id = index into atoms).
type component struct {
	atoms []int // global atom ids, ascending
	rules []ground.Rule
	facts []int // local ids
}

// decompose partitions the program. coreFacts are fact atoms no rule
// mentions (true in every stable model); atoms mentioned by neither a rule
// nor a fact are false in every model and appear nowhere. inconsistent
// reports an atom-free ground rule — an unconditionally violated denial —
// which makes the program have no stable models at all.
func decompose(p *ground.Program) (coreFacts []int, comps []*component, inconsistent bool) {
	n := p.NumAtoms()
	uf := depgraph.NewUnionFind(n)
	inRule := make([]bool, n)
	for _, r := range p.Rules {
		first := -1
		link := func(atoms []int) {
			for _, a := range atoms {
				inRule[a] = true
				if first == -1 {
					first = a
				} else {
					uf.Union(first, a)
				}
			}
		}
		link(r.Head)
		link(r.Pos)
		link(r.Neg)
		if first == -1 {
			// A ground rule with no atoms is a violated denial: the
			// program is inconsistent regardless of everything else.
			return nil, nil, true
		}
	}

	for _, f := range p.Facts {
		if !inRule[f] {
			coreFacts = append(coreFacts, f)
		}
	}
	sort.Ints(coreFacts)
	// Hand-built programs may repeat a fact id; models must not.
	coreFacts = slices.Compact(coreFacts)

	// Number the components in ascending order of their smallest atom, so
	// components and their atom lists are deterministic. owner holds each
	// set representative's component (1-based) and then each atom's; local
	// is an atom's position in its component's atom list.
	owner := make([]int32, n)
	local := make([]int32, n)
	var sizes []int32
	for a := 0; a < n; a++ {
		if !inRule[a] {
			continue
		}
		root := uf.Find(a)
		if owner[root] == 0 {
			sizes = append(sizes, 0)
			owner[root] = int32(len(sizes))
		}
		c := owner[root]
		owner[a] = c
		local[a] = sizes[c-1]
		sizes[c-1]++
	}

	// Components, their atom lists and their relabeled rules share a few
	// backing arrays: decompose runs once per query on the cautious path.
	all := make([]component, len(sizes))
	comps = make([]*component, len(sizes))
	atomBuf := make([]int, n)
	off := 0
	for i := range all {
		all[i].atoms = atomBuf[off : off : off+int(sizes[i])]
		off += int(sizes[i])
		comps[i] = &all[i]
	}
	for a := 0; a < n; a++ {
		if inRule[a] {
			c := &all[owner[a]-1]
			c.atoms = append(c.atoms, a)
		}
	}
	ruleOwner := func(r ground.Rule) int {
		switch {
		case len(r.Head) > 0:
			return int(owner[r.Head[0]] - 1)
		case len(r.Pos) > 0:
			return int(owner[r.Pos[0]] - 1)
		default:
			return int(owner[r.Neg[0]] - 1)
		}
	}
	nRules := make([]int, len(all))
	nLits := 0
	for _, r := range p.Rules {
		nRules[ruleOwner(r)]++
		nLits += len(r.Head) + len(r.Pos) + len(r.Neg)
	}
	rules := make([]ground.Rule, len(p.Rules))
	off = 0
	for i := range all {
		all[i].rules = rules[off : off : off+nRules[i]]
		off += nRules[i]
	}
	lits := make([]int, 0, nLits)
	relabel := func(atoms []int) []int {
		if len(atoms) == 0 {
			return nil
		}
		start := len(lits)
		for _, a := range atoms {
			lits = append(lits, int(local[a]))
		}
		return lits[start:len(lits):len(lits)]
	}
	for _, r := range p.Rules {
		c := &all[ruleOwner(r)]
		c.rules = append(c.rules, ground.Rule{
			Head: relabel(r.Head),
			Pos:  relabel(r.Pos),
			Neg:  relabel(r.Neg),
		})
	}
	for _, f := range p.Facts {
		if inRule[f] {
			c := &all[owner[f]-1]
			c.facts = append(c.facts, int(local[f]))
		}
	}
	return coreFacts, comps, false
}

// Components is a ground program split into its independent components,
// for consumers that can answer from each component's own models — the
// atoms true in all of a component's models, or how many distinct models
// it has — instead of from the cross product Enumerate streams: k
// components of two models each have 2^k combined models but only 2k
// component models.
type Components struct {
	core         []int
	comps        []*component
	inconsistent bool
}

// Decompose splits p into its independent components.
func Decompose(p *ground.Program) *Components {
	core, comps, inconsistent := decompose(p)
	return &Components{core: core, comps: comps, inconsistent: inconsistent}
}

// Core returns the facts no rule mentions, ascending: they are true in
// every stable model. An atom neither in Core nor in a component is false
// in every stable model.
func (cs *Components) Core() []int { return cs.core }

// Len returns the number of components.
func (cs *Components) Len() int { return len(cs.comps) }

// Atoms returns the atoms of component c, ascending. Read-only.
func (cs *Components) Atoms(c int) []int { return cs.comps[c].atoms }

// Solve enumerates the stable models of the listed components, one
// component after another in the given order, each on its own solver on
// the calling goroutine. yield receives every model of component c — the
// component's true atoms, ascending — in the solver's discovery order;
// returning false stops component c, and Solve goes on with the next one.
// The stable models of the program are exactly Core plus one model of
// each component, so these are the program's models restricted to c;
// Solve never forms their combinations.
//
// ok is false when a listed component has no stable model, or the program
// holds a violated ground denial: the program then has no stable model,
// and Solve returns at once. Every candidate solve of the pass is charged
// to one Options.MaxCandidates budget, and exceeding it returns
// ErrCandidateLimit. Cancellation aborts an in-flight solve and returns
// ctx.Err(); the models already yielded are valid but incomplete.
func (cs *Components) Solve(ctx context.Context, opts Options, order []int, yield func(c int, m Model) bool) (ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if cs.inconsistent {
		return false, nil
	}
	bud := opts.budget()
	stop := func() bool { return ctx.Err() != nil }
	for _, c := range order {
		e := newEnumerator(cs.comps[c], bud, stop, opts.scratchSolve)
		found := false
		for {
			m, more := e.next()
			// A solve aborted by the stop hook ends the stream early,
			// which must not read as a component without models.
			if err := ctx.Err(); err != nil {
				return false, err
			}
			if !more {
				if e.err != nil {
					return false, e.err
				}
				break
			}
			found = true
			if !yield(c, m) {
				break
			}
		}
		if !found {
			return false, nil
		}
	}
	return true, nil
}
