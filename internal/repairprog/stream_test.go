package repairprog

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/stable"
)

// TestStreamRepairsMatchesMaterialized checks the streaming entry point
// against its materialized wrapper: the streamed (instance, model) pairs
// dedup to exactly the StableRepairs instance set, in a deterministic
// stream order.
func TestStreamRepairsMatchesMaterialized(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantCorrected)
	want := stableInstances(t, tr)

	var sequential []string
	for run := 0; run < 2; run++ {
		var streamed []string
		seen := map[string]bool{}
		if err := tr.StreamRepairs(stable.Options{}, func(inst *relational.Instance, delta relational.Delta, m stable.Model) bool {
			if len(m) == 0 {
				t.Fatal("empty stable model streamed")
			}
			if got := relational.Diff(d, inst); !deltasEqual(got, delta) {
				t.Fatalf("emitted delta %v does not match Diff %v", delta, got)
			}
			key := inst.Key()
			streamed = append(streamed, key)
			seen[key] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(want) {
			t.Fatalf("run %d: %d distinct streamed repairs, want %d", run, len(seen), len(want))
		}
		for _, w := range want {
			if !seen[w.Key()] {
				t.Errorf("run %d: repair %v never streamed", run, w)
			}
		}
		// The stream — content and order — is the same on every run.
		if run == 0 {
			sequential = streamed
		} else if len(streamed) != len(sequential) {
			t.Fatalf("run %d: stream length %d differs from the first %d", run, len(streamed), len(sequential))
		} else {
			for i := range streamed {
				if streamed[i] != sequential[i] {
					t.Fatalf("run %d: stream diverges at %d", run, i)
				}
			}
		}
	}
}

// TestStreamRepairsCancel checks that yield returning false stops the
// stream without an error — the hook core's boolean short-circuit rides on.
func TestStreamRepairsCancel(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantCorrected)
	calls := 0
	if err := tr.StreamRepairs(stable.Options{}, func(_ *relational.Instance, _ relational.Delta, _ stable.Model) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("yield ran %d times after immediate cancellation", calls)
	}
}
