package relational

import (
	"sort"
	"sync"

	"repro/internal/value"
)

// This file implements the physical storage layer of the package: per-relation
// tuple stores with lazily built hash indexes on bound-column subsets, grouped
// into an engine that one or more Instance views share. The logical layer
// (set semantics, overlays, Δ computation) lives in relational.go.
//
// Layering, bottom up:
//
//	value encodings (internal/value) — content-addressed keys and hashes
//	relStore                         — one predicate/arity: rows + indexes
//	engine                           — map[RelKey]*relStore + fingerprint
//	Instance                         — engine owner, or overlay Base+Δ view
//
// All keys are compact self-delimiting binary encodings of the constants'
// content (value.V.AppendKey), so membership tests and index probes never
// re-render constants as display text — and never consult any process-wide
// intern table. Every engine is therefore fully self-contained: two tenants
// of one process share no storage state whatsoever, which is what the
// multi-tenant daemon's isolation rests on.

// RelKey identifies one relation of an instance: predicate name and arity.
// The paper fixes one arity per predicate but Example 1 is loose about it, so
// the engine keys stores by both.
type RelKey struct {
	Pred  string
	Arity int
}

func appendU32(b []byte, x uint32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

// appendTupleKey appends the self-delimiting content encoding of every
// position of t (value.V.AppendKey). The encoding is a pure function of the
// tuple's content: no intern table is consulted, so key construction is
// contention-free and tenants sharing a process share no state through it.
func appendTupleKey(b []byte, t Tuple) []byte {
	for _, v := range t {
		b = v.AppendKey(b)
	}
	return b
}

// tupleKeyLen returns the exact byte length of appendTupleKey(nil, t).
func tupleKeyLen(t Tuple) int {
	n := 0
	for _, v := range t {
		n += v.KeyLen()
	}
	return n
}

// factHash is a 64-bit FNV-1a hash of the fact identity (predicate name,
// arity, argument content). Instance fingerprints XOR these per-fact hashes,
// which makes the fingerprint order-independent and incrementally updatable
// on both insert and delete. The hash is content-determined — stable across
// runs and processes, no interner involved.
func factHash(f Fact) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(f.Pred); i++ {
		h ^= uint64(f.Pred[i])
		h *= prime
	}
	h ^= uint64(len(f.Pred))
	h *= prime
	h ^= uint64(len(f.Args))
	h *= prime
	for _, v := range f.Args {
		h = v.Hash(h)
	}
	return h
}

// Binding fixes one column of a scan to a constant. Scans with bindings are
// served from hash indexes on the bound-column subset.
type Binding struct {
	Pos int
	Val value.V
}

// matchBindings reports whether t agrees with every binding (null as an
// ordinary constant — value.V.Eq).
func matchBindings(t Tuple, bindings []Binding) bool {
	for _, b := range bindings {
		if !t[b.Pos].Eq(b.Val) {
			return false
		}
	}
	return true
}

// relStore holds the tuples of one relation. Rows keep their insertion
// order (the store's deterministic iteration order); deletion tombstones a
// row, and the store compacts itself when tombstones dominate. The
// per-bound-column-subset hash indexes are built lazily, kept current by
// inserts, and dropped when compaction renumbers the rows.
//
// Concurrency: an unfrozen store is confined to one goroutine (the owner
// instance). Once the engine freezes (overlay views exist), rows/keys/pos
// become immutable and any number of goroutines may scan concurrently; the
// only remaining write is the lazy build of idx, which is double-checked
// under mu. Scan bookkeeping (scanning / maybeCompact) is skipped entirely
// on frozen stores — nothing can be tombstoned anymore.
type relStore struct {
	rows []Tuple        // insertion order; nil = tombstone
	keys []string       // tuple key per row, parallel to rows
	pos  map[string]int // tuple key -> row position
	dead int

	scanning int // active scans; compaction is deferred while nonzero

	frozen bool // rows/keys/pos immutable; lazy builds go through mu

	mu  sync.RWMutex                // guards idx once frozen
	idx map[uint32]map[string][]int // lazy: position mask -> bound ids -> rows
}

func newRelStore() *relStore {
	return &relStore{pos: map[string]int{}}
}

func (s *relStore) live() int { return len(s.rows) - s.dead }

// insert adds a tuple (set semantics), reporting whether it was new. The
// caller passes the precomputed tuple key. Existing hash indexes are kept
// valid incrementally — the new row is appended to the matching bucket of
// each index — so interleaved scan/insert loops (the grounder fixpoint) do
// not rebuild indexes per derived atom.
func (s *relStore) insert(key string, t Tuple) bool {
	if _, ok := s.pos[key]; ok {
		return false
	}
	row := len(s.rows)
	s.pos[key] = row
	s.rows = append(s.rows, t.Clone())
	s.keys = append(s.keys, key)
	var buf []byte
	for mask, m := range s.idx {
		buf = buf[:0]
		for p := 0; p < 32; p++ {
			if mask&(1<<uint(p)) != 0 {
				buf = t[p].AppendKey(buf)
			}
		}
		m[string(buf)] = append(m[string(buf)], row)
	}
	return true
}

// delete tombstones a row. Hash indexes stay valid — scans skip tombstones
// via the liveness check — and are only dropped when compaction renumbers
// rows.
func (s *relStore) delete(key string) bool {
	i, ok := s.pos[key]
	if !ok {
		return false
	}
	delete(s.pos, key)
	s.rows[i] = nil
	s.dead++
	s.maybeCompact()
	return true
}

func (s *relStore) has(key string) bool {
	_, ok := s.pos[key]
	return ok
}

// tombstonesDominate is the compaction rule for tombstoned rows and for an
// overlay's tombstoned adds: compact once more than 32 entries are dead and
// the dead outnumber the live. A checked delete thus leaves at most
// max(32, live) tombstones behind, and a compaction costs O(live + dead),
// amortized O(1) over the deletes that made the tombstones.
func tombstonesDominate(dead, live int) bool { return dead > 32 && dead > live }

// maybeCompact rebuilds the row arrays once tombstones dominate, preserving
// the relative (insertion) order of the surviving rows. Compaction renumbers
// row positions, so it is deferred while any scan is in flight (a scan's
// captured index entries reference positions; tombstoned rows are skipped by
// the scan's liveness check, but renumbering would alias them to live rows).
func (s *relStore) maybeCompact() {
	if s.scanning > 0 || !tombstonesDominate(s.dead, s.live()) {
		return
	}
	rows := make([]Tuple, 0, s.live())
	keys := make([]string, 0, s.live())
	for i, t := range s.rows {
		if t == nil {
			continue
		}
		s.pos[s.keys[i]] = len(rows)
		rows = append(rows, t)
		keys = append(keys, s.keys[i])
	}
	s.rows, s.keys, s.dead = rows, keys, 0
	s.idx = nil
}

// maskAndPositions derives the index identity of a binding set. ok is false
// when the bindings cannot be served by a mask index (arity beyond 32).
func maskAndPositions(bindings []Binding, arity int) (mask uint32, positions []int, ok bool) {
	if arity > 32 {
		return 0, nil, false
	}
	positions = make([]int, len(bindings))
	for i, b := range bindings {
		positions[i] = b.Pos
		mask |= 1 << uint(b.Pos)
	}
	sort.Ints(positions)
	return mask, positions, true
}

// index returns the hash index on the given bound-column subset, building it
// on first use. The index maps the encoded ids of the bound columns (in
// ascending position order) to row positions. On a frozen store the build is
// double-checked under mu: concurrent scanners either observe the published
// (immutable) index or serialize on building it exactly once.
func (s *relStore) index(mask uint32, positions []int) map[string][]int {
	if s.frozen {
		s.mu.RLock()
		m, ok := s.idx[mask]
		s.mu.RUnlock()
		if ok {
			return m
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if m, ok := s.idx[mask]; ok {
			return m
		}
		m = s.buildIndex(positions)
		if s.idx == nil {
			s.idx = map[uint32]map[string][]int{}
		}
		s.idx[mask] = m
		return m
	}
	if s.idx == nil {
		s.idx = map[uint32]map[string][]int{}
	}
	if m, ok := s.idx[mask]; ok {
		return m
	}
	m := s.buildIndex(positions)
	s.idx[mask] = m
	return m
}

func (s *relStore) buildIndex(positions []int) map[string][]int {
	m := make(map[string][]int, len(s.rows))
	var buf []byte
	for i, t := range s.rows {
		if t == nil {
			continue
		}
		buf = buf[:0]
		for _, p := range positions {
			buf = t[p].AppendKey(buf)
		}
		m[string(buf)] = append(m[string(buf)], i)
	}
	return m
}

// scan visits the row positions matching the bindings, in insertion order,
// using (and lazily building) the hash index on the bound columns. yield
// returns false to stop; scan reports whether the iteration ran to the end.
// Mutating the relation from inside yield is allowed on an owner instance
// (the grounder's fixpoint inserts while scanning): inserts appended after
// the scan started are not visited, deletes are skipped by the liveness
// check, and compaction is deferred until the scan unwinds.
func (s *relStore) scan(bindings []Binding, yield func(row int) bool) bool {
	if !s.frozen {
		// Deletion bookkeeping only matters while the store can still be
		// written; frozen stores are immutable, and skipping the counter
		// keeps concurrent scans write-free.
		s.scanning++
		defer func() {
			s.scanning--
			s.maybeCompact()
		}()
	}
	if len(bindings) == 0 {
		for i, t := range s.rows {
			if t != nil && !yield(i) {
				return false
			}
		}
		return true
	}
	mask, positions, ok := maskAndPositions(bindings, cap32(bindings))
	if !ok {
		for i, t := range s.rows {
			if t != nil && matchBindings(t, bindings) && !yield(i) {
				return false
			}
		}
		return true
	}
	idx := s.index(mask, positions)
	var buf []byte
	vals := make(map[int]value.V, len(bindings))
	for _, b := range bindings {
		vals[b.Pos] = b.Val
	}
	for _, p := range positions {
		buf = vals[p].AppendKey(buf)
	}
	for _, i := range idx[string(buf)] {
		// Rows referenced by a frozen engine's index are never
		// tombstoned, but an owner instance may delete between probes;
		// re-check liveness (positions stay valid: compaction is
		// deferred while scanning).
		if s.rows[i] == nil {
			continue
		}
		if !yield(i) {
			return false
		}
	}
	return true
}

// cap32 returns the highest bound position + 1, used as the effective arity
// for mask construction.
func cap32(bindings []Binding) int {
	max := 0
	for _, b := range bindings {
		if b.Pos+1 > max {
			max = b.Pos + 1
		}
	}
	return max
}

// engine is the physical store shared by an owner Instance and the overlay
// views cloned from it. Once any overlay exists the engine is frozen and
// becomes immutable, so its caches and indexes stay valid for every view —
// including views read concurrently from multiple goroutines (cqad's
// sessions, concurrent ground.Program.Extend calls): all remaining writes
// are lazy cache builds, serialized per store by relStore.mu and per engine
// by mu.
type engine struct {
	stores map[RelKey]*relStore
	order  []RelKey // first-insertion order of relations
	size   int
	fp     uint64
	frozen bool

	mu    sync.Mutex // guards the lazy facts build once frozen
	facts []Fact     // lazy: all live facts, sorted
}

// freeze makes the engine immutable: writes panic, and every store switches
// to its race-free concurrent-read mode.
func (e *engine) freeze() {
	if e.frozen {
		return
	}
	e.frozen = true
	for _, s := range e.stores {
		s.frozen = true
	}
}

func newEngine() *engine {
	return &engine{stores: map[RelKey]*relStore{}}
}

func (e *engine) store(rk RelKey, create bool) *relStore {
	s, ok := e.stores[rk]
	if !ok && create {
		s = newRelStore()
		e.stores[rk] = s
		e.order = append(e.order, rk)
	}
	return s
}

func (e *engine) insert(f Fact) bool {
	if e.frozen {
		panic("relational: write to a frozen engine (overlay views exist)")
	}
	s := e.store(RelKey{f.Pred, len(f.Args)}, true)
	key := f.Args.Key()
	if !s.insert(key, f.Args) {
		return false
	}
	e.size++
	e.fp ^= factHash(f)
	e.facts = nil
	return true
}

func (e *engine) delete(f Fact) bool {
	if e.frozen {
		panic("relational: write to a frozen engine (overlay views exist)")
	}
	s := e.store(RelKey{f.Pred, len(f.Args)}, false)
	if s == nil || !s.delete(f.Args.Key()) {
		return false
	}
	e.size--
	e.fp ^= factHash(f)
	e.facts = nil
	return true
}

func (e *engine) has(rk RelKey, key string) bool {
	s := e.stores[rk]
	return s != nil && s.has(key)
}

// sortedFacts returns (and caches) every live fact in Fact.Compare order.
// Callers must not mutate the result.
func (e *engine) sortedFacts() []Fact {
	if e.frozen {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	if e.facts == nil {
		out := make([]Fact, 0, e.size)
		for rk, s := range e.stores {
			for _, t := range s.rows {
				if t != nil {
					out = append(out, Fact{Pred: rk.Pred, Args: t})
				}
			}
		}
		SortFacts(out)
		e.facts = out
	}
	return e.facts
}

// forEach visits every live fact in deterministic (relation-declaration,
// then row-insertion) order. Compaction is deferred per relation while it
// is being iterated, so deletes from inside yield stay visible as
// tombstones rather than renumbering rows mid-iteration.
func (e *engine) forEach(yield func(Fact) bool) bool {
	for _, rk := range e.order {
		s := e.stores[rk]
		if s.frozen {
			// Immutable: iterate without deletion bookkeeping, so
			// concurrent iterations stay write-free.
			for i := 0; i < len(s.rows); i++ {
				if s.rows[i] == nil {
					continue
				}
				if !yield(Fact{Pred: rk.Pred, Args: s.rows[i]}) {
					return false
				}
			}
			continue
		}
		s.scanning++
		for i := 0; i < len(s.rows); i++ {
			if s.rows[i] == nil {
				continue
			}
			if !yield(Fact{Pred: rk.Pred, Args: s.rows[i]}) {
				s.scanning--
				s.maybeCompact()
				return false
			}
		}
		s.scanning--
		s.maybeCompact()
	}
	return true
}
