package stable_test

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/stable"
	"repro/internal/value"
)

// hrColdDB is the FD + FK + NOT NULL shape of Example 19 at 80 depts, 320
// emps and 160 projs: 3 depts carry a second manager and 2 emps reference
// a missing dept, so there are 2^5 = 32 repairs (the root package's
// cautious benchmarks use the same instance).
func hrColdDB() (*relational.Instance, *constraint.Set) {
	const depts, emps, projs, fdConf, fkConf = 80, 320, 160, 3, 2
	d := relational.NewInstance()
	for i := 0; i < depts; i++ {
		d.Insert(relational.F("dept", value.Str(fmt.Sprintf("d%d", i)), value.Str(fmt.Sprintf("m%d", i))))
		if i < fdConf {
			d.Insert(relational.F("dept", value.Str(fmt.Sprintf("d%d", i)), value.Str(fmt.Sprintf("x%d", i))))
		}
	}
	for j := 0; j < emps; j++ {
		d.Insert(relational.F("emp", value.Str(fmt.Sprintf("e%d", j)), value.Str(fmt.Sprintf("d%d", j%depts))))
	}
	for j := 0; j < fkConf; j++ {
		d.Insert(relational.F("emp", value.Str(fmt.Sprintf("z%d", j)), value.Str(fmt.Sprintf("dz%d", j))))
	}
	for l := 0; l < projs; l++ {
		d.Insert(relational.F("proj", value.Str(fmt.Sprintf("e%d", l%emps)), value.Str(fmt.Sprintf("p%d", l))))
	}
	return d, parser.MustConstraints(`
		dept(D, M1), dept(D, M2) -> M1 = M2.
		emp(E, D) -> dept(D, M).
		dept(D, M), isnull(D) -> false.
	`)
}

// TestSupportedCandidates pins what the supportedness clauses buy on
// cautious-reads' shape: each of the five conflict components yields its
// two models in at most three candidate solves, the last one finding the
// component exhausted. Without the clauses a conflicted dept's component
// took 64, as 61 of its 63 minimal models were unsupported.
func TestSupportedCandidates(t *testing.T) {
	d, set := hrColdDB()
	tr, err := repairprog.BuildWith(d, set, repairprog.BuildOptions{
		Variant:            repairprog.VariantCorrected,
		PruneUnconstrained: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gp, err := tr.BaseGrounding()
	if err != nil {
		t.Fatal(err)
	}
	cs := stable.Decompose(gp)
	if cs.Len() != 5 {
		t.Fatalf("components = %d, want 5", cs.Len())
	}
	for c := 0; c < cs.Len(); c++ {
		models, solves := stable.ComponentCandidates(gp, c)
		t.Logf("component %d: %d atoms, %d models, %d candidate solves", c, len(cs.Atoms(c)), models, solves)
		if models != 2 || solves > 3 {
			t.Errorf("component %d: %d models in %d candidate solves, want 2 in at most 3", c, models, solves)
		}
	}
}
