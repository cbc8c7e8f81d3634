package query

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// This file pins the base-anchored patched evaluation against the
// from-scratch evaluator: for random base instances, random deltas, and a
// query zoo covering joins, unions, negation, builtins, repeated variables,
// and boolean queries, BaseEval.EvalOn must be byte-identical to Eval on the
// patched instance. The suite runs under -race in CI with the rest of the
// package.

func deltaQueryZoo() []*Q {
	lit := func(neg bool, pred string, args ...term.T) Literal {
		return Literal{Atom: term.NewAtom(pred, args...), Neg: neg}
	}
	v := term.V
	return []*Q{
		{Name: "q1", Head: []string{"X"}, Disjuncts: []Conj{{
			Lits: []Literal{lit(false, "r", v("X"), v("Y"))},
		}}},
		{Name: "q2", Head: []string{"X", "Z"}, Disjuncts: []Conj{{
			Lits: []Literal{lit(false, "r", v("X"), v("Y")), lit(false, "s", v("Y"), v("Z"))},
		}}},
		{Name: "q3", Head: []string{"X"}, Disjuncts: []Conj{{
			Lits: []Literal{lit(false, "r", v("X"), v("Y")), lit(true, "s", v("X"), v("Y"))},
		}}},
		{Name: "q4", Head: []string{"X"}, Disjuncts: []Conj{
			{Lits: []Literal{lit(false, "r", v("X"), v("X"))}},
			{Lits: []Literal{lit(false, "s", v("X"), v("Y")), lit(true, "r", v("Y"), v("X"))}},
		}},
		{Name: "q5", Head: nil, Disjuncts: []Conj{{ // boolean join
			Lits: []Literal{lit(false, "r", v("X"), v("Y")), lit(false, "s", v("Y"), v("Z"))},
		}}},
		{Name: "q6", Head: nil, Disjuncts: []Conj{{ // boolean ground negation
			Lits: []Literal{lit(true, "r", term.CStr("a"), term.CStr("b"))},
		}}},
		{Name: "q7", Head: []string{"X", "Y"}, Disjuncts: []Conj{{
			Lits:     []Literal{lit(false, "r", v("X"), v("Y"))},
			Builtins: []term.Builtin{{Op: term.NEQ, L: v("X"), R: v("Y")}},
		}}},
		{Name: "q8", Head: []string{"X", "X"}, Disjuncts: []Conj{{ // repeated head var
			Lits: []Literal{lit(false, "s", v("X"), v("Y")), lit(true, "r", v("X"), v("X"))},
		}}},
	}
}

func randDeltaFact(rng *rand.Rand) relational.Fact {
	vals := []value.V{value.Str("a"), value.Str("b"), value.Str("c"), value.Null(), value.Int(7)}
	preds := []string{"r", "s"}
	return relational.Fact{
		Pred: preds[rng.Intn(2)],
		Args: relational.Tuple{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]},
	}
}

// randEdit inserts a random fact into r or deletes one, often one r holds.
func randEdit(rng *rand.Rand, r *relational.Instance) {
	f := randDeltaFact(rng)
	if rng.Intn(2) == 0 {
		r.Insert(f)
	} else if facts := r.Facts(); len(facts) > 0 && rng.Intn(2) == 0 {
		r.Delete(facts[rng.Intn(len(facts))])
	} else {
		r.Delete(f)
	}
}

func tuplesEqual(a, b []relational.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestPatchedEvalMatchesScratch compares EvalOn against Eval over random
// base instances and random overlay deltas of growing size, including deltas
// that delete and re-insert base facts.
func TestPatchedEvalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	zoo := deltaQueryZooValidated(t)
	for trial := 0; trial < 300; trial++ {
		base := relational.NewInstance()
		for k := 0; k < rng.Intn(12); k++ {
			base.Insert(randDeltaFact(rng))
		}
		evals := make([]*BaseEval, len(zoo))
		for i, q := range zoo {
			be, err := NewBaseEval(base, q)
			if err != nil {
				t.Fatal(err)
			}
			evals[i] = be
		}
		for variant := 0; variant < 3; variant++ {
			r := base.Clone()
			for k := 0; k < rng.Intn(5); k++ {
				randEdit(rng, r)
			}
			for i, q := range zoo {
				want, err := Eval(r, q)
				if err != nil {
					t.Fatal(err)
				}
				got := evals[i].EvalOn(r)
				if !tuplesEqual(got, want) {
					t.Fatalf("trial %d query %s: patched %v, scratch %v\nbase=%v\nr=%v\nΔ=%v",
						trial, q.Name, got, want, base, r, relational.Diff(base, r))
				}
			}
		}
	}
}

func deltaQueryZooValidated(t *testing.T) []*Q {
	t.Helper()
	zoo := deltaQueryZoo()
	for _, q := range zoo {
		if err := q.Validate(); err != nil {
			t.Fatalf("query zoo entry %s invalid: %v", q.Name, err)
		}
	}
	return zoo
}

// TestPatchedEvalEmptyDelta pins the fast path: patching with an untouched
// clone returns the base answers verbatim.
func TestPatchedEvalEmptyDelta(t *testing.T) {
	base := relational.NewInstance(
		relational.F("r", value.Str("a"), value.Str("b")),
		relational.F("s", value.Str("b"), value.Str("c")),
	)
	q := deltaQueryZoo()[1]
	be, err := NewBaseEval(base, q)
	if err != nil {
		t.Fatal(err)
	}
	got := be.EvalOn(base.Clone())
	if !tuplesEqual(got, be.BaseAnswers()) {
		t.Fatalf("empty delta: got %v, base %v", got, be.BaseAnswers())
	}
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", be.BaseAnswers()) {
		t.Fatalf("empty delta rendering differs")
	}
}

// TestCertainOnMatchesIntersection pins BaseEval.CertainOn against
// ∩_r Eval(r) over random instance sets and the whole query zoo. Every
// instance of a set shares a few edits of the base, so answers gained in
// all of them (fresh certain answers) occur, and then makes edits of its
// own; an untouched copy of the base sometimes joins the set.
func TestCertainOnMatchesIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	zoo := deltaQueryZooValidated(t)
	fresh := 0
	for trial := 0; trial < 300; trial++ {
		base := relational.NewInstance()
		for k := 0; k < rng.Intn(12); k++ {
			base.Insert(randDeltaFact(rng))
		}
		shared := base.Clone()
		for k := 0; k < 1+rng.Intn(3); k++ {
			randEdit(rng, shared)
		}
		rs := make([]*relational.Instance, 1+rng.Intn(5))
		for j := range rs {
			rs[j] = shared.Clone()
			for k := 0; k < rng.Intn(3); k++ {
				randEdit(rng, rs[j])
			}
		}
		if rng.Intn(4) == 0 {
			rs = append(rs, base.Clone())
		}
		for _, q := range zoo {
			be, err := NewBaseEval(base, q)
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			for _, r := range rs {
				ans, err := Eval(r, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, tu := range ans {
					counts[tu.Key()]++
				}
			}
			first, _ := Eval(rs[0], q)
			var want []relational.Tuple
			for _, tu := range first {
				if counts[tu.Key()] == len(rs) {
					want = append(want, tu)
				}
			}
			got := be.CertainOn(rs)
			if !tuplesEqual(got, want) {
				t.Fatalf("trial %d query %s: CertainOn %v, ∩ Eval %v\nbase=%v\nrs=%v",
					trial, q.Name, got, want, base, rs)
			}
			inBase := map[string]bool{}
			for _, tu := range be.BaseAnswers() {
				inBase[tu.Key()] = true
			}
			for _, tu := range got {
				if !inBase[tu.Key()] {
					fresh++
				}
			}
		}
	}
	if fresh == 0 {
		t.Fatal("no trial had a certain answer missing from the base")
	}
	be, err := NewBaseEval(relational.NewInstance(), zoo[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := be.CertainOn(nil); got != nil {
		t.Fatalf("CertainOn(nil) = %v, want nil", got)
	}
}
