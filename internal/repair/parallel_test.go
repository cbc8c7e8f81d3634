package repair

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/nullsem"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// TestParallelMatchesSequential pins that the search is a function of its
// input: on randomized instances and constraint sets, two runs produce
// byte-identical Repairs and Deltas — content and order — and the same
// states-explored and leaf counts.
func TestParallelMatchesSequential(t *testing.T) {
	universe := atomUniverse()
	sets := bruteSets()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		d := relational.NewInstance()
		for _, f := range universe {
			if rng.Intn(2) == 0 {
				d.Insert(f)
			}
		}
		set := sets[trial%len(sets)]
		for _, mode := range []Mode{NullBased, Classic} {
			first, err := Repairs(d, set, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			again, err := Repairs(d, set, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("trial %d mode %v", trial, mode), first, again)
		}
	}
}

// assertSameResult fails unless two enumerations agree on every repair and
// delta (content and order) and on both diagnostics.
func assertSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.StatesExplored != want.StatesExplored || got.Leaves != want.Leaves {
		t.Fatalf("%s: %d states / %d leaves, want %d / %d",
			label, got.StatesExplored, got.Leaves, want.StatesExplored, want.Leaves)
	}
	if len(got.Repairs) != len(want.Repairs) {
		t.Fatalf("%s: %d vs %d repairs", label, len(want.Repairs), len(got.Repairs))
	}
	for i := range want.Repairs {
		if want.Repairs[i].Key() != got.Repairs[i].Key() {
			t.Fatalf("%s: repair %d differs: %v vs %v", label, i, want.Repairs[i], got.Repairs[i])
		}
		if !sameDelta(want.Deltas[i], got.Deltas[i]) {
			t.Fatalf("%s: delta %d differs: %v vs %v", label, i, want.Deltas[i], got.Deltas[i])
		}
	}
}

func sameDelta(a, b relational.Delta) bool {
	if len(a.Removed) != len(b.Removed) || len(a.Added) != len(b.Added) {
		return false
	}
	for i := range a.Removed {
		if !a.Removed[i].Equal(b.Removed[i]) {
			return false
		}
	}
	for i := range a.Added {
		if !a.Added[i].Equal(b.Added[i]) {
			return false
		}
	}
	return true
}

// TestParallelChainedFixes repeats the search on a deeper workload — bulk
// FD violations whose fixes chain — and pins every run against the first.
func TestParallelChainedFixes(t *testing.T) {
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
	first, err := Repairs(d, fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Repairs) != 16 {
		t.Fatalf("repairs = %d, want 16", len(first.Repairs))
	}
	for run := 1; run < 4; run++ {
		again, err := Repairs(d, fd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("run %d", run), first, again)
	}
}

// example17RIC is the referential constraint of Example 17:
// P(x,y) → ∃z R(x,z).
func example17RIC() *constraint.Set {
	return constraint.MustSet([]*constraint.IC{{
		Name: "ric",
		Body: []term.Atom{atom("P", v("x"), v("y"))},
		Head: []term.Atom{atom("R", v("x"), v("z"))},
	}}, nil)
}

// TestEnumerateStreams checks the streaming contract: leaves arrive one at a
// time, feeding them to an Antichain reproduces Repairs exactly, and
// cancelling mid-stream stops the sequential search before it admits
// further states.
func TestEnumerateStreams(t *testing.T) {
	d, set := example18()
	full := mustRepairs(t, d, set, Options{})

	ac := NewAntichain(d, NullBased)
	var leaves int
	stats, err := Enumerate(d, set, Options{}, func(leaf *relational.Instance) bool {
		if !nullsem.Satisfies(leaf, set, nullsem.NullAware) {
			t.Fatalf("streamed leaf %v is not consistent", leaf)
		}
		leaves++
		ac.Add(leaf)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves != full.Leaves || stats.Leaves != full.Leaves || stats.StatesExplored != full.StatesExplored {
		t.Fatalf("stream stats %+v with %d yields, want %d leaves / %d states",
			stats, leaves, full.Leaves, full.StatesExplored)
	}
	repairs, deltas := ac.Results()
	if len(repairs) != len(full.Repairs) || len(deltas) != len(repairs) {
		t.Fatalf("antichain kept %d repairs, want %d", len(repairs), len(full.Repairs))
	}
	for i := range repairs {
		if repairs[i].Key() != full.Repairs[i].Key() {
			t.Fatalf("antichain repair %d differs from Repairs", i)
		}
	}

	// Cancelling after the first leaf stops a sequential search cold.
	stats, err = Enumerate(d, set, Options{}, func(*relational.Instance) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leaves != 1 {
		t.Fatalf("cancelled stream yielded %d leaves, want 1", stats.Leaves)
	}
	if stats.StatesExplored >= full.StatesExplored {
		t.Fatalf("cancelled stream explored %d states, full search %d — no short-circuit",
			stats.StatesExplored, full.StatesExplored)
	}
}

// TestAntichainMatchesMinimalUnder cross-checks the online filter against
// the batch MinimalUnder on random candidate streams in random arrival
// orders.
func TestAntichainMatchesMinimalUnder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		d := randomSmallInstance(rng)
		var candidates []*relational.Instance
		seen := map[string]bool{}
		for k := 0; k < 1+rng.Intn(7); k++ {
			c := randomSmallInstance(rng)
			if seen[c.Key()] {
				continue // the search never emits duplicate leaves
			}
			seen[c.Key()] = true
			candidates = append(candidates, c)
		}
		want := MinimalUnder(d, candidates, LeqD)
		wantKeys := map[string]bool{}
		for _, w := range want {
			wantKeys[w.Key()] = true
		}
		ac := NewAntichain(d, NullBased)
		for _, i := range rng.Perm(len(candidates)) {
			ac.Add(candidates[i])
		}
		got, _ := ac.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: antichain kept %d, MinimalUnder %d\nD=%v\ncands=%v",
				trial, len(got), len(want), d, candidates)
		}
		for _, g := range got {
			if !wantKeys[g.Key()] {
				t.Fatalf("trial %d: antichain kept %v, not minimal per MinimalUnder", trial, g)
			}
		}
		if ac.MinimalCount() != len(want) {
			t.Fatalf("trial %d: MinimalCount %d, want %d", trial, ac.MinimalCount(), len(want))
		}
	}
}

// TestConfirmMinimal pins the certificate on Example 17: both true repairs
// are confirmed, while the consistent-but-dominated D3 is not (its
// null-generalized pool contains the dominating R(b,null) insertion).
func TestConfirmMinimal(t *testing.T) {
	d := inst(fact("P", s("a"), n()), fact("P", s("b"), s("c")), fact("R", s("a"), s("b")))
	set := example17RIC()
	res := mustRepairs(t, d, set, Options{})
	if len(res.Repairs) != 2 {
		t.Fatalf("repairs = %d, want 2", len(res.Repairs))
	}
	for _, r := range res.Repairs {
		if !ConfirmMinimal(d, r, set, Options{}) {
			t.Errorf("true repair %v not confirmed minimal", r)
		}
	}
	d3 := d.Clone()
	d3.Insert(fact("R", s("b"), s("d")))
	if ConfirmMinimal(d, d3, set, Options{}) {
		t.Error("dominated D3 must not be confirmed minimal")
	}
}

// TestIsRepairParallel re-runs the Example 17 membership checks through the
// short-circuiting IsRepair.
func TestIsRepairParallel(t *testing.T) {
	d := inst(fact("P", s("a"), n()), fact("P", s("b"), s("c")), fact("R", s("a"), s("b")))
	set := example17RIC()
	d1 := d.Clone()
	d1.Insert(fact("R", s("b"), n()))
	d3 := d.Clone()
	d3.Insert(fact("R", s("b"), s("d")))
	inconsistent := inst(fact("P", s("b"), s("c")))
	for _, tc := range []struct {
		cand *relational.Instance
		want bool
	}{{d1, true}, {d3, false}, {inconsistent, false}} {
		got, err := IsRepair(d, set, tc.cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("IsRepair(%v) = %v, want %v", tc.cand, got, tc.want)
		}
	}
}
