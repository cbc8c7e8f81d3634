package direct

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relational"
	"repro/internal/value"
)

// TestSpliceMatchesRebuild pins splice against a plain rebuild of the
// sorted list, for a handful of edits up to more edits than the list holds,
// and checks that the input list is left as it was.
func TestSpliceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuple := func(i int) relational.Tuple { return relational.Tuple{value.Str(fmt.Sprintf("t%03d", i))} }
	for trial := 0; trial < 200; trial++ {
		in := map[int]bool{}
		var ts []relational.Tuple
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				in[i] = true
				ts = append(ts, tuple(i))
			}
		}
		old := slices.Clone(ts)
		edits := rng.Intn(100)
		var added, removed []relational.Tuple
		for _, i := range rng.Perm(100)[:edits] {
			if in[i] {
				removed = append(removed, tuple(i))
				delete(in, i)
			} else {
				added = append(added, tuple(i))
				in[i] = true
			}
		}
		slices.SortFunc(added, relational.Tuple.Compare)
		slices.SortFunc(removed, relational.Tuple.Compare)
		var want []relational.Tuple
		for i := 0; i < 100; i++ {
			if in[i] {
				want = append(want, tuple(i))
			}
		}
		got := splice(ts, added, removed)
		if !slices.EqualFunc(got, want, relational.Tuple.Equal) {
			t.Fatalf("trial %d (%d edits): got %v, want %v", trial, edits, got, want)
		}
		if !slices.EqualFunc(ts, old, relational.Tuple.Equal) {
			t.Fatalf("trial %d (%d edits): splice wrote its input: %v, was %v", trial, edits, ts, old)
		}
	}
}
