package repair

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/nullsem"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/value"
)

// TestIncrementalProbeMatchesScratch is the tentpole differential for the
// delta-driven search: over randomized instances and constraint sets, the
// incremental probe (the default) must produce byte-identical Repairs and
// Deltas — content and order — to the scratch probe (Options.scratchProbe),
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
			scratch, err := Repairs(d, set, Options{Mode: mode, scratchProbe: true})
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
	scratch := mustRepairs(t, d, fd, Options{scratchProbe: true})
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

// hrFixture is the paper's Example 19 shape at small scale: a key on dept,
// a foreign key from emp to dept and NOT NULL on the dept key, with three
// key conflicts and two emps of missing depts (2^5 = 32 repairs). The key
// comes first in IC order, so the FK violations sit behind the key
// conflicts: the search reaches them in the 8 states where all three key
// conflicts are resolved.
func hrFixture() (*relational.Instance, *constraint.Set) {
	d := parser.MustInstance(`
		dept(d0, m0). dept(d0, x0). dept(d1, m1). dept(d1, x1).
		dept(d2, m2). dept(d2, x2). dept(d3, m3).
		emp(e0, d0). emp(e1, d1). emp(e2, d2). emp(e3, d3).
		emp(z0, dz0). emp(z1, dz1).
	`)
	set := parser.MustConstraints(`
		dept(D, M1), dept(D, M2) -> M1 = M2.
		emp(E, D) -> dept(D, M).
		dept(D, M), isnull(D) -> false.
	`)
	return d, set
}

// TestSeededSearchRunsNoScratchCheck pins where the search checks an IC
// over the whole instance: a seeded enumeration never does, and an
// unseeded one does once per IC, at the root. Every later state advances
// the lists its changed fact can reach, including the FK list the key
// conflicts hide. With seed lists in the checkers' own order, the two runs
// explore the same states.
func TestSeededSearchRunsNoScratchCheck(t *testing.T) {
	d, set := hrFixture()
	seed := &Seed{Viols: make([][]nullsem.Violation, len(set.ICs))}
	for i, ic := range set.ICs {
		seed.Viols[i] = nullsem.NewICChecker(ic, nullsem.NullAware).Violations(d)
	}
	if len(seed.Viols) != 2 || len(seed.Viols[0]) == 0 || len(seed.Viols[1]) != 2 {
		t.Fatalf("fixture lost its premise: violation lists %v", seed.Viols)
	}
	var stats [2]Stats
	for k, tc := range []struct {
		name string
		seed *Seed
		want int
	}{{"seeded", seed, 0}, {"unseeded", nil, len(set.ICs)}} {
		s, err := newSearcher(context.Background(), d, set, Options{Seed: tc.seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		root := s.stack[0]
		s.stack = s.stack[:0]
		if s.expand(root) != nil {
			t.Fatalf("%s: the root is consistent", tc.name)
		}
		atRoot := s.scratchChecks
		ac := NewAntichain(d, NullBased)
		stats[k], err = s.run(func(leaf *relational.Instance) bool {
			ac.Add(leaf)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if atRoot != tc.want || s.scratchChecks != tc.want {
			t.Errorf("%s: %d scratch checks at the root, %d in the run; want %d, all at the root",
				tc.name, atRoot, s.scratchChecks, tc.want)
		}
		if repairs, _ := ac.Results(); len(repairs) != 32 {
			t.Errorf("%s: %d repairs, want 32", tc.name, len(repairs))
		}
	}
	if stats[0] != stats[1] {
		t.Errorf("seeded run %+v, unseeded run %+v", stats[0], stats[1])
	}
}

// FuzzSearchProbe checks the maintained-list probe on decoded inputs.
// data[0]'s low six bits pick the facts of atomUniverse, data[1] a set of
// bruteSets and data[2] the mode; data[3], when present, rotates each seed
// list. Repairs and Deltas must be byte-identical to the scratch-probe run,
// unseeded and seeded with the root's lists in that order, and equal to
// bruteRepairs under NullBased.
func FuzzSearchProbe(f *testing.F) {
	universe, sets := atomUniverse(), bruteSets()
	for k := range sets {
		f.Add([]byte{0x3f, byte(k), 0, 1})
		f.Add([]byte{0x2d, byte(k), 1, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := relational.NewInstance()
		for b, fct := range universe {
			if data[0]&(1<<b) != 0 {
				d.Insert(fct)
			}
		}
		set := sets[int(data[1])%len(sets)]
		mode := Mode(data[2] % 2)
		sem := nullsem.NullAware
		if mode == Classic {
			sem = nullsem.ClassicFO
		}
		seed := &Seed{Viols: make([][]nullsem.Violation, len(set.ICs))}
		for i, ic := range set.ICs {
			vs := nullsem.NewICChecker(ic, sem).Violations(d)
			if len(data) > 3 && len(vs) > 0 {
				r := int(data[3]) % len(vs)
				vs = append(append([]nullsem.Violation(nil), vs[r:]...), vs[:r]...)
			}
			seed.Viols[i] = vs
		}
		scratch := mustRepairs(t, d, set, Options{Mode: mode, scratchProbe: true})
		for _, opts := range []Options{{Mode: mode}, {Mode: mode, Seed: seed}} {
			got := mustRepairs(t, d, set, opts)
			if len(got.Repairs) != len(scratch.Repairs) {
				t.Fatalf("mode %v seeded %v: %d repairs, scratch %d\nD=%v",
					mode, opts.Seed != nil, len(got.Repairs), len(scratch.Repairs), d)
			}
			for i := range scratch.Repairs {
				if got.Repairs[i].Key() != scratch.Repairs[i].Key() || !sameDelta(got.Deltas[i], scratch.Deltas[i]) {
					t.Fatalf("mode %v seeded %v: repair %d is %v (Δ %v), scratch %v (Δ %v)\nD=%v",
						mode, opts.Seed != nil, i, got.Repairs[i], got.Deltas[i], scratch.Repairs[i], scratch.Deltas[i], d)
				}
			}
		}
		if mode != NullBased {
			return
		}
		brute := bruteRepairs(d, set, universe)
		want := map[string]bool{}
		for _, b := range brute {
			want[b.Key()] = true
		}
		if len(scratch.Repairs) != len(brute) {
			t.Fatalf("%d repairs, brute force %d\nD=%v", len(scratch.Repairs), len(brute), d)
		}
		for _, r := range scratch.Repairs {
			if !want[r.Key()] {
				t.Fatalf("repair %v not in brute-force set %v\nD=%v", r, brute, d)
			}
		}
	})
}
