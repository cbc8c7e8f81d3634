package nullsem

import (
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/value"
)

// This file pins the Δ-seeded incremental checkers against the scratch
// evaluators: over random instances, random deltas, and every semantics, the
// incremental verdicts and violation sets must be exactly the scratch ones.
// The suite runs under -race in CI together with the rest of the package.

func incrementalSets() []*constraint.Set {
	return []*constraint.Set{
		parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`),
		parser.MustConstraints(`
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
		`),
		parser.MustConstraints(`p(X, Y), q(Y, Z) -> r(X, Z) | X = Z.`),
		parser.MustConstraints(`r(X, Y), isnull(X) -> false.`),
		parser.MustConstraints(`p(X, Y) -> p(Y, Z).`),
		parser.MustConstraints(`
			r(X, Y) -> s(X, Y).
			s(X, Y), isnull(Y) -> false.
		`),
	}
}

func randomTupleFact(rng *rand.Rand) relational.Fact {
	vals := []value.V{value.Str("a"), value.Str("b"), value.Str("c"), value.Null(), value.Int(21)}
	preds := []struct {
		name  string
		arity int
	}{{"course", 2}, {"student", 2}, {"r", 2}, {"s", 2}, {"p", 2}, {"q", 2}}
	p := preds[rng.Intn(len(preds))]
	args := make(relational.Tuple, p.arity)
	for i := range args {
		args[i] = vals[rng.Intn(len(vals))]
	}
	return relational.Fact{Pred: p.name, Args: args}
}

func randomParent(rng *rand.Rand) *relational.Instance {
	d := relational.NewInstance()
	for k := 0; k < 1+rng.Intn(10); k++ {
		d.Insert(randomTupleFact(rng))
	}
	return d
}

// perturb clones the parent and applies 1–3 random single-fact edits,
// returning the child together with Δ(parent, child).
func perturb(rng *rand.Rand, parent *relational.Instance) (*relational.Instance, relational.Delta) {
	child := parent.Clone()
	for k := 0; k < 1+rng.Intn(3); k++ {
		f := randomTupleFact(rng)
		if rng.Intn(2) == 0 {
			child.Insert(f)
		} else if facts := child.Facts(); len(facts) > 0 && rng.Intn(2) == 0 {
			child.Delete(facts[rng.Intn(len(facts))])
		} else {
			child.Delete(f)
		}
	}
	return child, relational.Diff(parent, child)
}

func violationSet(c *icContext, vs []Violation) map[string]bool {
	m := map[string]bool{}
	for _, v := range vs {
		m[c.substKey(v.Subst)] = true
	}
	return m
}

// TestIncrementalMatchesScratch is the tentpole differential: FirstFrom /
// ViolationsFrom under the satisfied-parent contract, Update on arbitrary
// parents, and SatisfiesFrom on consistent anchors must all agree with the
// scratch evaluators on the child instance.
func TestIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sets := incrementalSets()
	for trial := 0; trial < 250; trial++ {
		parent := randomParent(rng)
		child, delta := perturb(rng, parent)
		set := sets[trial%len(sets)]
		for _, sem := range AllSemantics() {
			for _, ic := range set.ICs {
				k := NewICChecker(ic, sem)
				scratch := CheckIC(child, ic, sem)
				want := violationSet(k.c, scratch)

				// Update: prev is the complete parent list, no contract on
				// parent consistency.
				prev := CheckIC(parent, ic, sem)
				got := k.Update(child, prev, delta)
				gotSet := violationSet(k.c, got)
				if len(got) != len(scratch) || len(gotSet) != len(want) {
					t.Fatalf("trial %d sem %v ic %s: Update gives %d violations, scratch %d\nparent=%v\nchild=%v\nΔ=%v",
						trial, sem, ic.Name, len(got), len(scratch), parent, child, delta)
				}
				for key := range want {
					if !gotSet[key] {
						t.Fatalf("trial %d sem %v ic %s: Update misses a scratch violation\nparent=%v\nchild=%v\nΔ=%v",
							trial, sem, ic.Name, parent, child, delta)
					}
				}

				// FirstFrom / ViolationsFrom require a satisfied parent.
				if len(prev) != 0 {
					continue
				}
				if v, found := k.FirstFrom(child, delta); found != (len(scratch) > 0) {
					t.Fatalf("trial %d sem %v ic %s: FirstFrom found=%v, scratch has %d\nparent=%v\nchild=%v\nΔ=%v",
						trial, sem, ic.Name, found, len(scratch), parent, child, delta)
				} else if found && !want[k.c.substKey(v.Subst)] {
					t.Fatalf("trial %d sem %v ic %s: FirstFrom returned unknown violation %v",
						trial, sem, ic.Name, v)
				}
				fromSet := violationSet(k.c, k.ViolationsFrom(child, delta))
				if len(fromSet) != len(want) {
					t.Fatalf("trial %d sem %v ic %s: ViolationsFrom %d violations, scratch %d\nparent=%v\nchild=%v\nΔ=%v",
						trial, sem, ic.Name, len(fromSet), len(want), parent, child, delta)
				}
				for key := range want {
					if !fromSet[key] {
						t.Fatalf("trial %d sem %v ic %s: ViolationsFrom misses a scratch violation", trial, sem, ic.Name)
					}
				}
			}

			// Whole-set Δ-anchored satisfaction on consistent anchors.
			if Satisfies(parent, set, sem) {
				if got, want := NewSetChecker(set, sem).SatisfiesFrom(child, delta), Satisfies(child, set, sem); got != want {
					t.Fatalf("trial %d sem %v: SatisfiesFrom = %v, Satisfies = %v\nparent=%v\nchild=%v\nΔ=%v",
						trial, sem, got, want, parent, child, delta)
				}
			}
		}
	}
}

// TestUpdateChainsAcrossFixSequences walks random multi-step fix sequences
// (one single-fact edit per step, the shape of the repair search) and keeps
// the maintained list in lockstep with the scratch check at every node.
func TestUpdateChainsAcrossFixSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	sets := incrementalSets()
	for trial := 0; trial < 120; trial++ {
		cur := randomParent(rng)
		set := sets[trial%len(sets)]
		sem := AllSemantics()[trial%len(AllSemantics())]
		checkers := make([]*ICChecker, len(set.ICs))
		lists := make([][]Violation, len(set.ICs))
		for i, ic := range set.ICs {
			checkers[i] = NewICChecker(ic, sem)
			lists[i] = checkers[i].Violations(cur)
		}
		for step := 0; step < 6; step++ {
			next := cur.Clone()
			var delta relational.Delta
			f := randomTupleFact(rng)
			if facts := cur.Facts(); len(facts) > 0 && rng.Intn(2) == 0 {
				g := facts[rng.Intn(len(facts))]
				next.Delete(g)
				delta.Removed = []relational.Fact{g}
			} else {
				if !next.Insert(f) {
					continue // duplicate insert: no delta, nothing to check
				}
				delta.Added = []relational.Fact{f}
			}
			for i, ic := range set.ICs {
				lists[i] = checkers[i].Update(next, lists[i], delta)
				scratch := CheckIC(next, ic, sem)
				got := violationSet(checkers[i].c, lists[i])
				want := violationSet(checkers[i].c, scratch)
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d sem %v ic %s: maintained %d violations, scratch %d\ncur=%v\nnext=%v",
						trial, step, sem, ic.Name, len(got), len(want), cur, next)
				}
				for key := range want {
					if !got[key] {
						t.Fatalf("trial %d step %d sem %v ic %s: maintained list misses scratch violation", trial, step, sem, ic.Name)
					}
				}
			}
			cur = next
		}
	}
}

// TestSatisfiesFromDeniesWithGenuineViolations pins the one-sided guarantee
// SatisfiesFrom documents: even when the anchor contract is broken (the
// parent is inconsistent), a false verdict is always backed by a genuine
// violation — it never invents one.
func TestSatisfiesFromDeniesWithGenuineViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sets := incrementalSets()
	for trial := 0; trial < 150; trial++ {
		parent := randomParent(rng)
		child, delta := perturb(rng, parent)
		set := sets[trial%len(sets)]
		for _, sem := range AllSemantics() {
			if !NewSetChecker(set, sem).SatisfiesFrom(child, delta) && Satisfies(child, set, sem) {
				t.Fatalf("trial %d sem %v: SatisfiesFrom invented a violation on a consistent instance\nchild=%v\nΔ=%v",
					trial, sem, child, delta)
			}
		}
	}
}
