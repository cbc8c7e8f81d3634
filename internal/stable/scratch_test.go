package stable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ground"
)

func sortedModelSet(t *testing.T, p *ground.Program, opts Options) []string {
	t.Helper()
	models, err := Models(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = fmt.Sprint([]int(m))
	}
	sort.Strings(out)
	return out
}

// TestScratchSolveMatchesPersistent is the solver-reuse soundness pin: on
// randomized ground programs the scratch ablation (fresh solver per solve
// call) must produce exactly the same set of stable models as the default
// persistent solver. The per-component discovery order may differ between
// the modes, so the comparison is on sorted model sets; within each mode the
// stream must be identical from run to run.
func TestScratchSolveMatchesPersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		p := randomGroundProgramClean(rng, 4+rng.Intn(4))
		persistent := sortedModelSet(t, p, Options{})
		scratch := sortedModelSet(t, p, WithScratch(Options{}))
		if len(persistent) != len(scratch) {
			t.Fatalf("trial %d: %d persistent models, %d scratch", trial, len(persistent), len(scratch))
		}
		for i := range persistent {
			if persistent[i] != scratch[i] {
				t.Fatalf("trial %d: model sets diverge at %d: %s vs %s", trial, i, persistent[i], scratch[i])
			}
		}

		// Per-mode determinism: each mode's stream (content and order)
		// is the same on every run.
		for _, scratchMode := range []bool{false, true} {
			opts := Options{}
			if scratchMode {
				opts = WithScratch(opts)
			}
			var first []string
			for run := 0; run < 2; run++ {
				var stream []string
				if err := Enumerate(p, opts, func(m Model) bool {
					stream = append(stream, fmt.Sprint([]int(m)))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					first = stream
					continue
				}
				if len(stream) != len(first) {
					t.Fatalf("trial %d scratch=%v: stream length %d != %d",
						trial, scratchMode, len(stream), len(first))
				}
				for i := range stream {
					if stream[i] != first[i] {
						t.Fatalf("trial %d scratch=%v: stream diverges at %d",
							trial, scratchMode, i)
					}
				}
			}
		}
	}
}

// TestScratchSolveBudgetDeterminism checks that the candidate budget cutoff
// in scratch mode is, like the persistent mode's, a pure function of the
// demanded stream: same prefix and same error on every run. (The
// two modes may legitimately cut off at different points — candidate counts
// differ when discovery orders do — so each mode is only compared with
// itself.)
func TestScratchSolveBudgetDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := randomGroundProgramClean(rng, 7)
	for _, budget := range []int{1, 2, 4, 8, 1 << 16} {
		type outcome struct {
			models []string
			err    error
		}
		collect := func() outcome {
			var out outcome
			out.err = Enumerate(p, WithScratch(Options{MaxCandidates: budget}),
				func(m Model) bool {
					out.models = append(out.models, fmt.Sprint([]int(m)))
					return true
				})
			return out
		}
		first := collect()
		for run := 1; run < 3; run++ {
			again := collect()
			if first.err != again.err {
				t.Fatalf("budget=%d run=%d: err %v != first %v", budget, run, again.err, first.err)
			}
			if len(again.models) != len(first.models) {
				t.Fatalf("budget=%d run=%d: %d models != first %d", budget, run, len(again.models), len(first.models))
			}
			for i := range again.models {
				if again.models[i] != first.models[i] {
					t.Fatalf("budget=%d run=%d: stream diverges at %d", budget, run, i)
				}
			}
		}
	}
}
