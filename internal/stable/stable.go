// Package stable computes the stable models (answer sets) of ground
// disjunctive logic programs — the semantics of Gelfond & Lifschitz (1991)
// under which Definition 9's repair programs are interpreted (Section 5).
//
// The engine splits the ground program into independent components (no rule
// spans two components, so stable models factorize into a cross-product of
// per-component models), enumerates each component's models on an
// incremental CDCL solver (see sat.go and enum.go), and combines the
// fragments lazily: Enumerate streams combined models one at a time —
// the first model is observable long before the enumeration completes —
// and components can be solved in parallel (Options.Workers) without
// changing the stream. Consumers that can answer per component — cautious
// consequences, model counts — use Decompose and Components.Solve instead,
// which never form the cross-product. It also provides the head-cycle-freeness test and
// the shift transformation sh(Π) of Section 6 (Ben-Eliyahu & Dechter).
package stable

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ground"
)

// Options bounds and tunes the enumeration.
type Options struct {
	// MaxModels caps the number of stable models Enumerate streams (0 = no
	// cap).
	MaxModels int
	// MaxCandidates caps the number of candidate solver calls consumed by
	// the demanded model stream (0 = DefaultMaxCandidates); exceeding it
	// returns ErrCandidateLimit. The budget is charged in demand order —
	// solves a parallel prefetch performed for models the consumer never
	// reached are not counted — so whether and where the limit hits is a
	// pure function of the stream, identical for every Workers value.
	// Each component is additionally work-bounded by the same limit, so
	// total solving never exceeds (components+1) × MaxCandidates.
	MaxCandidates int
	// Workers sets the number of goroutines Enumerate solves components
	// on (<= 1 solves them lazily on the calling goroutine). The
	// model stream — content, order, and any ErrCandidateLimit cutoff —
	// is identical for every worker count; workers only overlap the
	// per-component solves, prefetching at most a bounded window ahead
	// of the stream.
	Workers int
	// Sorted makes Models sort its result lexicographically (the
	// pre-streaming contract). Enumerate ignores it: the stream order is
	// the deterministic component-odometer order documented there.
	Sorted bool
	// ScratchSolve is an ablation knob: rebuild each component's solver
	// from its clause log on every solve call instead of keeping one
	// persistent solver with learned clauses, saved phases, and a retained
	// assumption trail. The set of stable models is unchanged, but each
	// component's discovery order may differ from the persistent solver's;
	// within either mode the stream stays deterministic and identical for
	// every Workers value.
	ScratchSolve bool
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

// Enumerate streams the stable models of the ground program to yield, one
// model at a time; yield returning false cancels the rest of the
// enumeration (Enumerate then returns nil). The first model is delivered as
// soon as every component has produced one — long before the full model set
// exists.
//
// Ordering contract: models arrive in component-odometer order — components
// ordered by smallest atom id, each component's models in its solver's
// discovery order, the last component cycling fastest. The order is a pure
// function of the program: identical for every Workers value, stable across
// runs, but NOT lexicographic — collect via Models with Options.Sorted for
// the lexicographic order.
func Enumerate(p *ground.Program, opts Options, yield func(Model) bool) error {
	return EnumerateCtx(context.Background(), p, opts, yield)
}

// EnumerateCtx is Enumerate under a context. Cancellation aborts in-flight
// CDCL solves through the solvers' stop hooks (polled at every conflict and
// decision, so aborts are prompt even mid-solve) and returns ctx.Err();
// models already yielded remain valid stable models, but the stream is
// incomplete, so consumers must not treat a cancelled run as exhaustive.
func EnumerateCtx(ctx context.Context, p *ground.Program, opts Options, yield func(Model) bool) error {
	maxCand := opts.MaxCandidates
	if maxCand == 0 {
		maxCand = DefaultMaxCandidates
	}
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

	// One shared budget, charged in demand order as models are consumed;
	// each component also gets a private meter with the same cap as its
	// work bound (see candidateBudget).
	shared := &candidateBudget{max: int64(maxCand)}
	var stopped atomic.Bool
	stop := func() bool { return stopped.Load() || ctx.Err() != nil }
	srcs := make([]*modelSource, len(comps))
	for i, c := range comps {
		srcs[i] = newModelSource(c, int64(maxCand), shared, stop, opts.ScratchSolve)
	}
	if opts.Workers > 1 {
		// Eager mode for every source: modelAt waits on the cache instead
		// of touching the enumerator, so exactly one worker ever drives
		// each solver.
		for _, ms := range srcs {
			ms.eager = true
		}
		var wg sync.WaitGroup
		defer func() {
			// Stop and wake the fillers (they may be parked at the
			// prefetch window), then wait for them to unwind — promptly,
			// even on cancellation (in-flight solves abort via the stop
			// hook).
			stopped.Store(true)
			for _, ms := range srcs {
				ms.mu.Lock()
				ms.cond.Broadcast()
				ms.mu.Unlock()
			}
			wg.Wait()
		}()
		// One filler per component, demand-driven; the semaphore bounds
		// concurrent solving to Workers. A filler parked at its window
		// holds no token, so demanded components always make progress.
		workers := opts.Workers
		if workers > len(comps) {
			workers = len(comps)
		}
		sem := make(chan struct{}, workers)
		for _, ms := range srcs {
			wg.Add(1)
			go func(ms *modelSource) {
				defer wg.Done()
				ms.fill(sem)
			}(ms)
		}
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
	emitted := 0
	for {
		if !yield(combine(coreFacts, parts)) {
			return nil
		}
		emitted++
		if opts.MaxModels > 0 && emitted >= opts.MaxModels {
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
					parts[j], _, _ = srcs[j].modelAt(0) // cached
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

// prefetchWindow bounds how far an eager fill worker may run ahead of the
// combiner's demand, so a cancelled or capped enumeration with Workers > 1
// does not waste work draining whole components the consumer never asked
// for. (Prefetched solves are metered privately and charged to the shared
// budget only on consumption, so the window affects wasted work, never the
// stream or its budget cutoff.)
const prefetchWindow = 64

// modelSource adapts one component enumerator to indexed access, in two
// modes: lazy (sequential — modelAt pulls the underlying solver on the
// calling goroutine) and eager (parallel — a worker drains the solver into
// the cache via fill while modelAt waits). Both expose the identical model
// sequence, and both charge production costs to the shared budget in the
// combiner's demand order.
type modelSource struct {
	e      *enumerator
	shared *candidateBudget
	stop   func() bool

	mu       sync.Mutex
	cond     *sync.Cond
	cache    []Model
	costs    []int64 // candidate solves spent producing cache[i]
	tailCost int64   // solves spent discovering the stream's end
	charged  int     // cache prefix already charged to shared
	tailDone bool    // tailCost charged
	want     int     // highest index the combiner has requested
	done     bool
	err      error
	eager    bool
}

func newModelSource(c *component, maxCand int64, shared *candidateBudget, stop func() bool, scratch bool) *modelSource {
	ms := &modelSource{
		e:      newEnumerator(c, &candidateBudget{max: maxCand}, stop, scratch),
		shared: shared,
		stop:   stop,
	}
	ms.cond = sync.NewCond(&ms.mu)
	return ms
}

// fill eagerly drains the enumerator into the cache (parallel mode), at
// most prefetchWindow models ahead of the combiner's demand, holding a
// token of the shared worker semaphore only while solving. The enumerator's
// own stop hook aborts an in-flight solve on cancellation; Enumerate's
// cleanup broadcasts the cond so a filler parked at the window wakes up and
// exits.
func (ms *modelSource) fill(sem chan struct{}) {
	for {
		ms.mu.Lock()
		for !ms.stop() && len(ms.cache) >= ms.want+prefetchWindow {
			ms.cond.Wait()
		}
		ms.mu.Unlock()
		if ms.stop() {
			return
		}
		sem <- struct{}{}
		m, cost, ok := ms.e.next()
		<-sem
		ms.mu.Lock()
		if !ok {
			ms.done = true
			ms.err = ms.e.err
			ms.tailCost = cost
			ms.cond.Broadcast()
			ms.mu.Unlock()
			return
		}
		ms.cache = append(ms.cache, m)
		ms.costs = append(ms.costs, cost)
		ms.cond.Broadcast()
		ms.mu.Unlock()
	}
}

// modelAt returns the j-th model of the component, pulling (lazy) or
// waiting (eager) as needed; ok=false after the stream's end. Production
// costs are charged to the shared budget here, in demand order — the
// combiner demands indices sequentially, so the charge sequence (and hence
// any ErrCandidateLimit cutoff) is a pure function of the stream.
func (ms *modelSource) modelAt(j int) (Model, bool, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.eager {
		if j > ms.want {
			ms.want = j
			ms.cond.Broadcast() // raise the filler's prefetch window
		}
		for len(ms.cache) <= j && !ms.done {
			ms.cond.Wait()
		}
	} else {
		for len(ms.cache) <= j && !ms.done {
			m, cost, ok := ms.e.next()
			if !ok {
				ms.done = true
				ms.err = ms.e.err
				ms.tailCost = cost
				break
			}
			ms.cache = append(ms.cache, m)
			ms.costs = append(ms.costs, cost)
		}
	}
	for ms.charged <= j && ms.charged < len(ms.cache) {
		if !ms.shared.takeN(ms.costs[ms.charged]) {
			return nil, false, ErrCandidateLimit
		}
		ms.charged++
	}
	if j < len(ms.cache) {
		return ms.cache[j], true, nil
	}
	if !ms.tailDone {
		ms.tailDone = true
		if !ms.shared.takeN(ms.tailCost) && ms.err == nil {
			ms.err = ErrCandidateLimit
		}
	}
	return nil, false, ms.err
}

// Models enumerates the stable models of the ground program into a slice.
// With opts.Sorted they are sorted lexicographically; otherwise they keep
// Enumerate's deterministic stream order.
func Models(p *ground.Program, opts Options) ([]Model, error) {
	var out []Model
	if err := Enumerate(p, opts, func(m Model) bool {
		out = append(out, m)
		return true
	}); err != nil {
		return nil, err
	}
	if opts.Sorted {
		sort.Slice(out, func(i, j int) bool { return lessModel(out[i], out[j]) })
	}
	return out, nil
}

func lessModel(a, b Model) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// HasStableModel reports whether the program is consistent (has at least
// one stable model). It cancels the stream at the first model.
func HasStableModel(p *ground.Program) (bool, error) {
	found := false
	if err := Enumerate(p, Options{}, func(Model) bool {
		found = true
		return false
	}); err != nil {
		return false, err
	}
	return found, nil
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

// Brave returns the atoms true in at least one stable model.
func Brave(models []Model) []int {
	seen := map[int]bool{}
	var out []int
	for _, m := range models {
		for _, a := range m {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Ints(out)
	return out
}
