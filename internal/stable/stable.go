// Package stable computes the stable models (answer sets) of ground
// disjunctive logic programs — the semantics of Gelfond & Lifschitz (1991)
// under which Definition 9's repair programs are interpreted (Section 5).
//
// The engine splits the ground program into independent components (no rule
// spans two components, so stable models factorize into a cross-product of
// per-component models), enumerates each component's models on an
// incremental CDCL solver (see sat.go and enum.go), and combines the
// fragments lazily: Enumerate streams combined models one at a time on the
// calling goroutine — the first model is observable long before the
// enumeration completes. Consumers that can answer per component — cautious
// consequences, model counts — use Decompose and Components.Solve instead,
// which never form the cross-product. It also provides the head-cycle-freeness test and
// the shift transformation sh(Π) of Section 6 (Ben-Eliyahu & Dechter).
package stable

import (
	"context"
	"errors"
	"sort"

	"repro/internal/ground"
)

// Options bounds the enumeration.
type Options struct {
	// MaxCandidates caps the number of candidate solver calls that yield
	// a candidate in one Enumerate or Components.Solve call (0 =
	// DefaultMaxCandidates); the call that finds a component exhausted is
	// not charged. Exceeding it returns ErrCandidateLimit. Components are
	// solved on
	// demand, so where the limit hits is a pure function of the program
	// and of how far the consumer reads.
	MaxCandidates int

	// scratchSolve is the solver-reuse ablation: rebuild each component's
	// solver from its clause log on every solve call instead of keeping
	// one persistent solver with learned clauses, saved phases and a
	// retained assumption trail. The set of stable models is unchanged,
	// but each component's discovery order may differ. Only this
	// package's tests set it (export_test.go).
	scratchSolve bool
}

// DefaultMaxCandidates bounds candidate enumeration when unset.
const DefaultMaxCandidates = 1 << 18

// ErrCandidateLimit reports that candidate enumeration was cut short. API
// consumers match it with errors.Is; a server maps it to load-shedding.
var ErrCandidateLimit = errors.New("stable: candidate model limit exceeded")

// Model is a stable model: the sorted ids of its true atoms.
type Model []int

// Contains reports membership via binary search.
func (m Model) Contains(atom int) bool {
	i := sort.SearchInts(m, atom)
	return i < len(m) && m[i] == atom
}

// budget returns the candidate budget of one enumeration call.
func (o Options) budget() *candidateBudget {
	n := o.MaxCandidates
	if n == 0 {
		n = DefaultMaxCandidates
	}
	return &candidateBudget{max: n}
}

// Enumerate streams the stable models of the ground program to yield, one
// model at a time; yield returning false cancels the rest of the
// enumeration (Enumerate then returns nil). The first model is delivered as
// soon as every component has produced one — long before the full model set
// exists.
//
// Ordering contract: models arrive in component-odometer order — components
// ordered by smallest atom id, each component's models in its solver's
// discovery order, the last component cycling fastest. The order is a pure
// function of the program and stable across runs, but NOT lexicographic:
// sort the collected models with slices.Compare for that order.
func Enumerate(p *ground.Program, opts Options, yield func(Model) bool) error {
	return EnumerateCtx(context.Background(), p, opts, yield)
}

// EnumerateCtx is Enumerate under a context. Cancellation aborts in-flight
// CDCL solves through the solvers' stop hooks (polled at every conflict and
// decision, so aborts are prompt even mid-solve) and returns ctx.Err();
// models already yielded remain valid stable models, but the stream is
// incomplete, so consumers must not treat a cancelled run as exhaustive.
func EnumerateCtx(ctx context.Context, p *ground.Program, opts Options, yield func(Model) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	coreFacts, comps, inconsistent := decompose(p)
	if inconsistent {
		return nil // a violated ground denial: no stable models
	}
	if len(comps) == 0 {
		// Facts only: the single stable model.
		yield(Model(coreFacts))
		return nil
	}

	// Every component's solves are charged to one budget as the odometer
	// demands them.
	bud := opts.budget()
	stop := func() bool { return ctx.Err() != nil }
	srcs := make([]*modelSource, len(comps))
	for i, c := range comps {
		srcs[i] = &modelSource{e: newEnumerator(c, bud, stop, opts.scratchSolve)}
	}

	// Lazy cross-product odometer: idx[i] walks source i's model cache,
	// the last component cycling fastest. Each step pulls at most one new
	// per-component model; everything else is cached.
	k := len(comps)
	idx := make([]int, k)
	parts := make([]Model, k)
	for i := range srcs {
		m, ok, err := srcs[i].modelAt(0)
		if err != nil {
			return err
		}
		// Re-check the context after every pull: a solve aborted by the
		// stop hook surfaces as end-of-stream, which must not be reported
		// as a genuinely empty component.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if !ok {
			return nil // a component with no stable model: none overall
		}
		parts[i] = m
	}
	for {
		if !yield(combine(coreFacts, parts)) {
			return nil
		}
		pos := k - 1
		for pos >= 0 {
			m, ok, err := srcs[pos].modelAt(idx[pos] + 1)
			if err != nil {
				return err
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if ok {
				idx[pos]++
				parts[pos] = m
				for j := pos + 1; j < k; j++ {
					idx[j] = 0
					parts[j] = srcs[j].cache[0]
				}
				break
			}
			pos--
		}
		if pos < 0 {
			return nil
		}
	}
}

// combine merges the always-true core facts with one model fragment per
// component into a sorted Model. Every input is already sorted, so this is
// a k-way merge (k = components + 1, small), not a re-sort — combine runs
// once per emitted model, on the enumeration's hot path.
func combine(coreFacts []int, parts []Model) Model {
	n := len(coreFacts)
	srcs := make([][]int, 0, len(parts)+1)
	if len(coreFacts) > 0 {
		srcs = append(srcs, coreFacts)
	}
	for _, p := range parts {
		n += len(p)
		if len(p) > 0 {
			srcs = append(srcs, p)
		}
	}
	if n == 0 {
		return nil
	}
	out := make(Model, 0, n)
	idx := make([]int, len(srcs))
	for len(out) < n {
		best := -1
		for i, s := range srcs {
			if idx[i] < len(s) && (best == -1 || s[idx[i]] < srcs[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, srcs[best][idx[best]])
		idx[best]++
	}
	return out
}

// modelSource gives indexed access to one component's model stream,
// pulling the enumerator on demand and caching what it produced: the
// odometer revisits every model of a component once per combination of the
// components before it.
type modelSource struct {
	e     *enumerator
	cache []Model
}

// modelAt returns the j-th model of the component; ok=false after the
// stream's end, with the enumerator's error (ErrCandidateLimit when the
// budget ran out first). The odometer asks for j <= len(cache), so each
// call pulls at most one new model.
func (ms *modelSource) modelAt(j int) (Model, bool, error) {
	for len(ms.cache) <= j {
		m, ok := ms.e.next()
		if !ok {
			return nil, false, ms.e.err
		}
		ms.cache = append(ms.cache, m)
	}
	return ms.cache[j], true, nil
}

// Models enumerates the stable models of the ground program into a slice,
// in Enumerate's deterministic stream order.
func Models(p *ground.Program, opts Options) ([]Model, error) {
	var out []Model
	if err := Enumerate(p, opts, func(m Model) bool {
		out = append(out, m)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Cautious returns the atoms true in every stable model (cautious/certain
// consequences), or nil if the program has no stable model.
func Cautious(models []Model) []int {
	if len(models) == 0 {
		return nil
	}
	out := append([]int(nil), models[0]...)
	for _, m := range models[1:] {
		var kept []int
		for _, a := range out {
			if m.Contains(a) {
				kept = append(kept, a)
			}
		}
		out = kept
	}
	return out
}
