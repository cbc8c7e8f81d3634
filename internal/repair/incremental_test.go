package repair

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/relational"
	"repro/internal/value"
)

// TestIncrementalProbeMatchesScratch is the tentpole differential for the
// delta-driven search: over randomized instances and constraint sets, the
// incremental probe (the default) must produce byte-identical Repairs and
// Deltas — content and order — to the scratch probe (Options.ScratchProbe),
// in both modes.
func TestIncrementalProbeMatchesScratch(t *testing.T) {
	universe := atomUniverse()
	sets := bruteSets()
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		d := relational.NewInstance()
		for _, f := range universe {
			if rng.Intn(2) == 0 {
				d.Insert(f)
			}
		}
		set := sets[trial%len(sets)]
		for _, mode := range []Mode{NullBased, Classic} {
			scratch, err := Repairs(d, set, Options{Mode: mode, ScratchProbe: true})
			if err != nil {
				t.Fatal(err)
			}
			inc, err := Repairs(d, set, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(inc.Repairs) != len(scratch.Repairs) {
				t.Fatalf("trial %d mode %v: incremental %d repairs, scratch %d\nD=%v",
					trial, mode, len(inc.Repairs), len(scratch.Repairs), d)
			}
			for i := range scratch.Repairs {
				if inc.Repairs[i].Key() != scratch.Repairs[i].Key() {
					t.Fatalf("trial %d mode %v: repair %d differs: %v vs %v",
						trial, mode, i, inc.Repairs[i], scratch.Repairs[i])
				}
				if !sameDelta(inc.Deltas[i], scratch.Deltas[i]) {
					t.Fatalf("trial %d mode %v: delta %d differs: %v vs %v",
						trial, mode, i, inc.Deltas[i], scratch.Deltas[i])
				}
			}
		}
	}
}

// TestIncrementalProbeDeepChains pins incremental ≡ scratch on the chained
// bulk-FD workload (deletion-only fixes, deep fix sequences) where the
// maintained violation lists carry across many levels, including the exact
// per-state diagnostics: deletion-only expansion is content-determined, so
// the probes choose identical violations and the fringes coincide.
func TestIncrementalProbeDeepChains(t *testing.T) {
	d := relational.NewInstance()
	for i := 0; i < 4; i++ {
		k := value.Str(fmt.Sprintf("k%d", i))
		d.Insert(relational.F("r", k, value.Str("b")))
		d.Insert(relational.F("r", k, value.Str("c")))
	}
	for i := 0; i < 32; i++ {
		d.Insert(relational.F("r", value.Str(fmt.Sprintf("u%d", i)), value.Str("v")))
	}
	fd := constraint.MustSet(constraint.FD("r", 2, []int{0}, []int{1}), nil)
	scratch := mustRepairs(t, d, fd, Options{ScratchProbe: true})
	inc := mustRepairs(t, d, fd, Options{})
	if len(inc.Repairs) != 16 || len(scratch.Repairs) != 16 {
		t.Fatalf("repairs = %d incremental / %d scratch, want 16", len(inc.Repairs), len(scratch.Repairs))
	}
	if inc.StatesExplored != scratch.StatesExplored || inc.Leaves != scratch.Leaves {
		t.Fatalf("diagnostics diverge on a deletion-only workload: incremental %d/%d, scratch %d/%d",
			inc.StatesExplored, inc.Leaves, scratch.StatesExplored, scratch.Leaves)
	}
	for i := range scratch.Repairs {
		if inc.Repairs[i].Key() != scratch.Repairs[i].Key() {
			t.Fatalf("repair %d differs between probes", i)
		}
	}
}
