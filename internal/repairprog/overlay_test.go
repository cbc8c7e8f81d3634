package repairprog

import (
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/relational"
	"repro/internal/stable"
	"repro/internal/term"
	"repro/internal/value"
)

func deltasEqual(a, b relational.Delta) bool {
	if len(a.Removed) != len(b.Removed) || len(a.Added) != len(b.Added) {
		return false
	}
	for i := range a.Removed {
		if a.Removed[i].Compare(b.Removed[i]) != 0 {
			return false
		}
	}
	for i := range a.Added {
		if a.Added[i].Compare(b.Added[i]) != 0 {
			return false
		}
	}
	return true
}

func factsEqual(a, b []relational.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestInterpretDeltaMatchesInterpret is the tentpole's byte-identity pin:
// on randomized instances, every stable model's overlay repair must carry
// exactly the materialized Interpret instance — same Facts(), and a Delta()
// that matches both the emitted delta and Diff against the base — with the
// stream identical from run to run, under both pruning modes.
func TestInterpretDeltaMatchesInterpret(t *testing.T) {
	fd := constraint.FD("R", 2, []int{0}, []int{1})
	fk := &constraint.IC{Name: "fk_S_R", Body: []term.Atom{atom("S", v("X1"), v("X2"))}, Head: []term.Atom{atom("R", v("X2"), v("Z2"))}}
	nnc := &constraint.NNC{Name: "rkey", Pred: "R", Arity: 2, Pos: 0}
	set := constraint.MustSet(append(fd, fk), []*constraint.NNC{nnc})
	vals := []value.V{s("a"), s("b"), n()}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		d := relational.NewInstance()
		for k := 0; k < 1+rng.Intn(3); k++ {
			d.Insert(fact("R", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		for k := 0; k < rng.Intn(3); k++ {
			d.Insert(fact("S", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		// Unconstrained bulk: pruned to passthrough when pruning is on,
		// annotated (rules 5–7 only) when off — both must ride along.
		for k := 0; k < rng.Intn(4); k++ {
			d.Insert(fact("T", value.Int(int64(k))))
		}
		for _, prune := range []bool{false, true} {
			tr, err := BuildWith(d, set, BuildOptions{Variant: VariantCorrected, PruneUnconstrained: prune})
			if err != nil {
				t.Fatal(err)
			}
			gp, err := ground.Ground(tr.Program)
			if err != nil {
				t.Fatal(err)
			}
			reader := tr.NewModelReader(gp)
			if err := stable.Enumerate(gp, stable.Options{}, func(m stable.Model) bool {
				want := tr.Interpret(gp, m)
				inst, delta := reader.Repair(m)
				if !factsEqual(inst.Facts(), want.Facts()) {
					t.Fatalf("trial %d prune=%v: overlay facts %v != materialized %v (model %v)",
						trial, prune, inst.Facts(), want.Facts(), m)
				}
				if diff := relational.Diff(d, want); !deltasEqual(delta, diff) {
					t.Fatalf("trial %d prune=%v: emitted delta %v != Diff %v", trial, prune, delta, diff)
				}
				if own := inst.Delta(); !deltasEqual(own, delta) {
					t.Fatalf("trial %d prune=%v: overlay Delta() %v != emitted delta %v", trial, prune, own, delta)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}

			// The (instance, delta) stream is identical on every run,
			// including content order.
			var first []string
			for run := 0; run < 2; run++ {
				var stream []string
				if err := tr.StreamRepairs(stable.Options{}, func(inst *relational.Instance, delta relational.Delta, _ stable.Model) bool {
					stream = append(stream, inst.Key())
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					first = stream
					continue
				}
				if len(stream) != len(first) {
					t.Fatalf("trial %d prune=%v: stream length %d != %d",
						trial, prune, len(stream), len(first))
				}
				for i := range stream {
					if stream[i] != first[i] {
						t.Fatalf("trial %d prune=%v: stream diverges at %d",
							trial, prune, i)
					}
				}
			}
		}
	}
}

// TestInterpretDeltaCutoff pins the MaxCandidates cutoff point: the overlay
// stream must deliver a prefix of the unbounded stream, the same one and the
// same error on every run, for budgets straddling the cutoff.
func TestInterpretDeltaCutoff(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantCorrected)
	type outcome struct {
		keys []string
		err  error
	}
	collect := func(budget int) outcome {
		var out outcome
		out.err = tr.StreamRepairs(stable.Options{MaxCandidates: budget},
			func(inst *relational.Instance, _ relational.Delta, _ stable.Model) bool {
				out.keys = append(out.keys, inst.Key())
				return true
			})
		return out
	}
	full := collect(0)
	if full.err != nil {
		t.Fatal(full.err)
	}
	for _, budget := range []int{1, 2, 3, 5, 8, 100} {
		seq := collect(budget)
		for run := 1; run < 3; run++ {
			par := collect(budget)
			if seq.err != par.err {
				t.Fatalf("budget=%d run=%d: err %v != first %v", budget, run, par.err, seq.err)
			}
			if len(par.keys) != len(seq.keys) {
				t.Fatalf("budget=%d run=%d: %d repairs != first %d", budget, run, len(par.keys), len(seq.keys))
			}
			for i := range par.keys {
				if par.keys[i] != seq.keys[i] {
					t.Fatalf("budget=%d run=%d: stream diverges at %d", budget, run, i)
				}
			}
		}
		for i, k := range seq.keys {
			if k != full.keys[i] {
				t.Fatalf("budget=%d: repair %d differs from the unbounded stream's", budget, i)
			}
		}
		if (len(seq.keys) < len(full.keys)) != (seq.err == stable.ErrCandidateLimit) {
			t.Fatalf("budget=%d: %d of %d repairs with err %v", budget, len(seq.keys), len(full.keys), seq.err)
		}
	}
}
