package nullsem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// This file cross-validates the index-backed evaluator against a naive
// reference that joins by scanning the materialized fact list with no
// bound-column probes — the pre-engine evaluation strategy. Any disagreement
// is a bug in the binding derivation (atomBindings / witnessBindings) or in
// the storage engine's Scan. The instance generator mirrors the randomized
// differential harness in internal/session/fuzz_test.go.

// naiveJoinBody enumerates body substitutions by filtering the full fact
// list per atom, exactly like the seed's Relation()-scan join.
func naiveJoinBody(d *relational.Instance, body []term.Atom, yield func(term.Subst, []relational.Fact) bool) {
	subst := term.Subst{}
	support := make([]relational.Fact, 0, len(body))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(body) {
			return yield(subst, support)
		}
		a := body[i]
		for _, f := range d.Facts() {
			if f.Pred != a.Pred || len(f.Args) != a.Arity() {
				continue
			}
			bound, ok := relational.MatchAtom(f.Args, a, subst)
			if !ok {
				continue
			}
			support = append(support, f)
			cont := rec(i + 1)
			support = support[:len(support)-1]
			relational.Unbind(subst, bound)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// naiveConsequentHolds checks the consequent by scanning every fact of each
// head predicate through witnessMatches, with no index pruning.
func naiveConsequentHolds(c *icContext, sem Semantics, d *relational.Instance, subst term.Subst) bool {
	for _, a := range c.ic.Head {
		for _, f := range d.Facts() {
			if f.Pred != a.Pred || len(f.Args) != a.Arity() {
				continue
			}
			if c.witnessMatches(sem, a, f.Args, subst) {
				return true
			}
		}
	}
	return false
}

// naiveCheckIC is CheckIC over the naive join and witness scan.
func naiveCheckIC(d *relational.Instance, ic *constraint.IC, sem Semantics) []Violation {
	var out []Violation
	c := newICContext(ic)
	naiveJoinBody(d, ic.Body, func(subst term.Subst, support []relational.Fact) bool {
		ex, forced := c.exempt(sem, subst, support)
		if ex {
			return true
		}
		if !forced {
			if phiHolds(sem, c.ic.Phi, subst) {
				return true
			}
			if naiveConsequentHolds(c, sem, d, subst) {
				return true
			}
		}
		out = append(out, Violation{IC: c.ic, Subst: subst.Clone(), Support: append([]relational.Fact(nil), support...)})
		return true
	})
	return out
}

func violationKeys(vs []Violation) map[string]int {
	m := map[string]int{}
	for _, v := range vs {
		m[fmt.Sprintf("%v|%v", v.Subst, relational.SortFacts(append([]relational.Fact(nil), v.Support...)))]++
	}
	return m
}

func TestIndexedCheckMatchesNaiveScan(t *testing.T) {
	sets := []*constraint.Set{
		parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`),
		parser.MustConstraints(`
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
		`),
		parser.MustConstraints(`p(X, Y), q(Y, Z) -> r(X, Z) | X = Z.`),
		parser.MustConstraints(`r(X, Y), isnull(X) -> false.`),
	}
	rng := rand.New(rand.NewSource(2027))
	vals := []value.V{value.Str("a"), value.Str("b"), value.Null(), value.Int(21)}
	pick := func() value.V { return vals[rng.Intn(len(vals))] }
	preds := []struct {
		name  string
		arity int
	}{{"course", 2}, {"student", 2}, {"r", 2}, {"s", 2}, {"p", 2}, {"q", 2}}

	for trial := 0; trial < 150; trial++ {
		d := relational.NewInstance()
		for k := 0; k < 1+rng.Intn(10); k++ {
			p := preds[rng.Intn(len(preds))]
			args := make(relational.Tuple, p.arity)
			for i := range args {
				args[i] = pick()
			}
			d.Insert(relational.Fact{Pred: p.name, Args: args})
		}
		if rng.Intn(2) == 0 { // exercise overlay instances too
			d = d.Clone()
			for k := 0; k < rng.Intn(4); k++ {
				p := preds[rng.Intn(len(preds))]
				args := make(relational.Tuple, p.arity)
				for i := range args {
					args[i] = pick()
				}
				if rng.Intn(2) == 0 {
					d.Insert(relational.Fact{Pred: p.name, Args: args})
				} else {
					d.Delete(relational.Fact{Pred: p.name, Args: args})
				}
			}
		}
		for si, set := range sets {
			for _, ic := range set.ICs {
				for _, sem := range AllSemantics() {
					indexed := CheckIC(d, ic, sem)
					naive := naiveCheckIC(d, ic, sem)
					gi, gn := violationKeys(indexed), violationKeys(naive)
					if len(gi) != len(gn) {
						t.Fatalf("trial %d set %d sem %v: indexed %d violations, naive %d\nD = %v",
							trial, si, sem, len(gi), len(gn), d)
					}
					for k := range gn {
						if gi[k] != gn[k] {
							t.Fatalf("trial %d set %d sem %v: violation sets differ on %s\nD = %v",
								trial, si, sem, k, d)
						}
					}
					if sat := SatisfiesIC(d, ic, sem); sat != (len(naive) == 0) {
						t.Fatalf("trial %d set %d sem %v: SatisfiesIC = %v but naive finds %d violations",
							trial, si, sem, sat, len(naive))
					}
					if v, ok := FirstViolationIC(d, ic, sem); ok != (len(naive) > 0) {
						t.Fatalf("trial %d set %d sem %v: FirstViolationIC ok=%v, naive=%d", trial, si, sem, ok, len(naive))
					} else if ok {
						if _, known := gn[fmt.Sprintf("%v|%v", v.Subst, relational.SortFacts(append([]relational.Fact(nil), v.Support...)))]; !known {
							t.Fatalf("trial %d: FirstViolationIC returned a violation the naive check does not know: %v", trial, v)
						}
					}
				}
			}
			for _, n := range set.NNCs {
				indexed := CheckNNC(d, n)
				naive := 0
				for _, f := range d.Facts() {
					if f.Pred == n.Pred && len(f.Args) == n.Arity && f.Args[n.Pos].IsNull() {
						naive++
					}
				}
				if len(indexed) != naive {
					t.Fatalf("trial %d: CheckNNC = %d facts, naive = %d", trial, len(indexed), naive)
				}
			}
		}
	}
}
