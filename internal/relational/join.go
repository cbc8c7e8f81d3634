package relational

import "repro/internal/term"

// This file is the one join kernel for the "null as ordinary constant"
// comparison mode (Definition 4): a conjunctive body is joined over an
// instance with null matching null and nothing else, which is how |=_N
// evaluates ψ_N, how the query answers of each repair are computed
// (Definition 8), and how the repair program Π(D, IC) is grounded (§5).
// Evaluation modes with other comparison semantics (SQL three-valued logic,
// the SQL match semantics) keep their own matchers.

// AtomBindings collects the columns of atom a that are fixed under the
// current substitution — constants and already-bound variables — as Scan
// bindings, so the storage engine serves the atom from a hash index on
// exactly those columns. Repeated unbound variables within the atom are not
// expressible as bindings; callers enforce them when matching the yielded
// tuples.
func AtomBindings(a term.Atom, subst term.Subst) []Binding {
	return appendBindings(nil, a, subst)
}

// appendBindings is AtomBindings appending to dst.
func appendBindings(dst []Binding, a term.Atom, subst term.Subst) []Binding {
	for i, t := range a.Args {
		if !t.IsVar() {
			dst = append(dst, Binding{Pos: i, Val: t.Const})
		} else if v, ok := subst[t.Var]; ok {
			dst = append(dst, Binding{Pos: i, Val: v})
		}
	}
	return dst
}

// MatchAtom unifies a tuple with atom a under subst, binding the atom's
// unbound variables in place. It returns the newly bound variables so the
// caller can backtrack with Unbind; on a mismatch it unbinds what it bound
// and reports false.
func MatchAtom(tuple Tuple, a term.Atom, subst term.Subst) (bound []string, ok bool) {
	return MatchInto(nil, tuple, a, subst)
}

// MatchInto is MatchAtom appending the newly bound variables to bound, so
// that a caller matching many tuples can reuse one buffer for all of them.
// It returns the extended buffer; on a mismatch it unbinds what it bound
// and returns bound unextended.
func MatchInto(bound []string, tuple Tuple, a term.Atom, subst term.Subst) ([]string, bool) {
	mark := len(bound)
	for i, t := range a.Args {
		if !t.IsVar() {
			if !tuple[i].Eq(t.Const) {
				Unbind(subst, bound[mark:])
				return bound[:mark], false
			}
			continue
		}
		if v, isBound := subst[t.Var]; isBound {
			if !tuple[i].Eq(v) {
				Unbind(subst, bound[mark:])
				return bound[:mark], false
			}
			continue
		}
		subst[t.Var] = tuple[i]
		bound = append(bound, t.Var)
	}
	return bound, true
}

// Unbind removes the variables a MatchAtom call bound.
func Unbind(subst term.Subst, bound []string) {
	for _, v := range bound {
		delete(subst, v)
	}
}

// BuiltinsHold reports whether every builtin evaluates to true under subst;
// a builtin with an unbound variable fails.
func BuiltinsHold(bs []term.Builtin, subst term.Subst) bool {
	for _, b := range bs {
		res, ok := b.Eval(subst)
		if !ok || !res {
			return false
		}
	}
	return true
}

// JoinStep is one step of a join: the atom it scans and the builtins that
// become decidable once the atom has bound its variables.
type JoinStep struct {
	Atom     term.Atom
	Builtins []term.Builtin
}

// Steps returns the atoms as join steps in the given order, with no
// builtins attached — for callers whose enumeration order is part of their
// contract.
func Steps(atoms []term.Atom) []JoinStep {
	steps := make([]JoinStep, len(atoms))
	for i, a := range atoms {
		steps[i].Atom = a
	}
	return steps
}

// PlanJoin orders the atoms of a join greedily: at each step it takes the
// remaining atom with the most columns bound by the steps already placed
// (constants and the variables in pre count as bound), breaking ties toward
// the smaller relation in d and then toward the given order. Each builtin is
// attached to the earliest step after which all its variables are bound;
// ready holds the builtins decidable before the first step (ground, or
// bound by pre), which the caller checks once before Join. The enumerated
// substitution set does not depend on the order; only its cost does. pre
// names the variables the caller's substitution binds before the join; it
// is not retained.
func PlanJoin(d *Instance, atoms []term.Atom, builtins []term.Builtin, pre []string) (steps []JoinStep, ready []term.Builtin) {
	steps = make([]JoinStep, len(atoms))
	var atombuf [8]term.Atom
	var boundbuf [24]string
	var atbuf [24]int
	remaining := append(atombuf[:0], atoms...)
	// bound lists the bound variables; at[i] is the step that binds
	// bound[i], -1 for the pre-bound ones.
	bound := append(boundbuf[:0], pre...)
	at := atbuf[:0]
	for range pre {
		at = append(at, -1)
	}
	for k := range steps {
		best := 0
		if len(remaining) > 1 {
			bestBound, bestSize := -1, 0
			for i, a := range remaining {
				nb := 0
				for _, t := range a.Args {
					if !t.IsVar() || indexOf(bound, t.Var) >= 0 {
						nb++
					}
				}
				size := d.RelationSize(a.Pred, a.Arity())
				if nb > bestBound || (nb == bestBound && size < bestSize) {
					best, bestBound, bestSize = i, nb, size
				}
			}
		}
		a := remaining[best]
		steps[k].Atom = a
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, t := range a.Args {
			if t.IsVar() && indexOf(bound, t.Var) < 0 {
				bound = append(bound, t.Var)
				at = append(at, k)
			}
		}
	}
	var vars []string
	for _, b := range builtins {
		step := -1
		vars = b.Vars(vars[:0])
		for _, v := range vars {
			if j := indexOf(bound, v); j >= 0 && at[j] > step {
				step = at[j]
			}
		}
		if step < 0 {
			ready = append(ready, b)
		} else {
			steps[step].Builtins = append(steps[step].Builtins, b)
		}
	}
	return steps, ready
}

// indexOf is a linear lookup in a small variable list — join bodies bind a
// handful of variables, so slices beat maps on the planning hot path.
func indexOf(vs []string, v string) int {
	for i, x := range vs {
		if x == v {
			return i
		}
	}
	return -1
}

// Join enumerates the substitutions of the joined steps over d, extending
// subst in place: each step's atom is served by an indexed scan on the
// columns subst already binds, and its builtins are checked as soon as it
// has matched. The substitution passed through yield is live — copy it if
// it must outlive the callback. yield returns false to stop; Join reports
// whether the enumeration completed. On return subst holds exactly the
// bindings it had on entry.
//
// The variables each step binds are kept on one stack for the whole join,
// each step matching every tuple of its scan into the slots above the
// steps before it, so a scan allocates nothing per tuple.
func Join(d *Instance, steps []JoinStep, subst term.Subst, yield func() bool) bool {
	var buf [16]string
	return join(d, steps, subst, buf[:0], yield)
}

// join runs steps with bound holding the variables the enclosing steps
// bound.
func join(d *Instance, steps []JoinStep, subst term.Subst, bound []string, yield func() bool) bool {
	if len(steps) == 0 {
		return yield()
	}
	st := &steps[0]
	cont := true
	var bsbuf [8]Binding
	d.Scan(st.Atom.Pred, st.Atom.Arity(), appendBindings(bsbuf[:0], st.Atom, subst), func(t Tuple) bool {
		next, ok := MatchInto(bound, t, st.Atom, subst)
		if !ok {
			return true
		}
		if BuiltinsHold(st.Builtins, subst) {
			cont = join(d, steps[1:], subst, next, yield)
		}
		Unbind(subst, next[len(bound):])
		return cont
	})
	return cont
}
