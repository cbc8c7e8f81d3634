// Package ground instantiates disjunctive logic programs over their active
// (Herbrand) domain, producing the ground programs consumed by the stable
// model engine in internal/stable.
//
// Grounding is "intelligent" in the DLV sense: a fixpoint first computes an
// over-approximation of the derivable atoms (treating every disjunct of
// every applicable rule as derivable and ignoring negation), and rules are
// then instantiated only over that set. Negative literals whose atom cannot
// possibly be derived are dropped as trivially true; positive literals that
// are facts are dropped as well. The result is typically a small fraction
// of the naive instantiation.
//
// The emitted rules are then folded down to their undecided core (fold.go):
// one linear propagation decides the atoms that facts alone derive (true)
// and those no remaining rule can derive (false), turns the former into
// facts, and drops the decided literals and every rule they settle. This is
// the lower-bound half of the well-founded approximation, where the
// possible set is the upper-bound half; the stable models are unchanged.
//
// The fixpoint is semi-naive (fixpoint.go): each round joins rules only
// through substitutions anchored on an atom derived in the previous round,
// with the remaining positive literals planned and joined by the relational
// join kernel (relational.PlanJoin, relational.Join): reordered by
// bound-column selectivity, builtins evaluated as soon as their variables
// are bound.
// A test-only hook (Options.naive) selects the round-robin full re-join
// ablation.
//
// Rule instantiation (emit.go) runs over a canonicalized possible set — the
// fixpoint result re-inserted in sorted fact order — so the emitted program
// is a pure function of the possible *set*, not of the fixpoint's derivation
// order: naive and semi-naive grounding produce byte-identical programs by
// construction.
//
// A grounded Program can be extended with further rules (extend.go) without
// re-grounding: Extend grounds only the new rules against the retained
// possible-set snapshot and shares the base program's slices copy-on-write.
// It folds only the new rules, reading the base atoms' values from the
// snapshot, and the result is byte-identical to folding a monolithic
// grounding.
//
// A base grounding can also follow a change of its input facts (update.go):
// Update moves the possible set by delete-and-rederive, re-emits only the
// rule instances that mention an atom whose possible or fact status
// changed, and folds the live instances again. The result equals a fresh
// grounding of the changed program up to atom numbering and rule order.
package ground

import (
	"sort"
	"strings"

	"repro/internal/relational"
	"repro/internal/term"
)

// Options tunes grounding. It has no exported field: the zero value, the
// semi-naive fixpoint, is the only production configuration.
type Options struct {
	// naive is the test-only ablation: every rule re-joined over the whole
	// possible set on every round, builtins evaluated at the join leaf.
	// The emitted program is identical either way.
	naive bool
}

// Program is a ground disjunctive program over interned atoms.
type Program struct {
	// Atoms maps each atom id back to predicate and arguments.
	Atoms []relational.Fact
	// Facts are atom ids that are unconditionally true: the input facts,
	// then the atoms the fold decided true, level by level in id order.
	Facts []int
	// Rules are the instantiated rules left undecided by the fold; no rule
	// mentions a fact. Atoms in no rule and no fact are false.
	Rules []Rule

	// ext retains the grounding snapshot (canonical possible set, member-
	// ship sets, dedup state, folded values) that Extend grounds additional
	// rules against; nil on hand-built programs.
	ext *extState
}

// Rule is one ground rule over atom ids.
type Rule struct {
	Head []int
	Pos  []int
	Neg  []int
}

// NumAtoms returns the number of interned atoms.
func (p *Program) NumAtoms() int { return len(p.Atoms) }

// String renders the ground program deterministically.
func (p *Program) String() string {
	var b strings.Builder
	facts := append([]int(nil), p.Facts...)
	sort.Ints(facts)
	for _, f := range facts {
		b.WriteString(p.Atoms[f].String())
		b.WriteString(".\n")
	}
	for _, r := range p.Rules {
		var parts []string
		for _, h := range r.Head {
			parts = append(parts, p.Atoms[h].String())
		}
		b.WriteString(strings.Join(parts, " v "))
		var body []string
		for _, a := range r.Pos {
			body = append(body, p.Atoms[a].String())
		}
		for _, a := range r.Neg {
			body = append(body, "not "+p.Atoms[a].String())
		}
		if len(body) > 0 {
			if len(r.Head) > 0 {
				b.WriteString(" ")
			}
			b.WriteString(":- ")
			b.WriteString(strings.Join(body, ", "))
		}
		b.WriteString(".\n")
	}
	return b.String()
}

// interner assigns dense ids to ground atoms. It buckets by Fact.Hash and
// confirms with Fact.Equal, so neither interning a new atom nor looking up
// an existing one materializes a string key. An interner may extend a
// frozen parent: the child sees every parent atom (ids are shared) while
// new atoms land only in the child, which is what lets an extension program
// share its base program's atom table copy-on-write.
type interner struct {
	parent  *interner
	buckets map[uint64][]int32
	// atoms holds the full atom table including the parent prefix; the
	// prefix is capacity-capped so appends never clobber the parent.
	atoms []relational.Fact
}

func newInterner() *interner {
	return &interner{buckets: make(map[uint64][]int32)}
}

// extend returns a child interner sharing this interner's atoms as an
// immutable prefix. The parent must not intern further atoms.
func (in *interner) extend() *interner {
	return &interner{
		parent:  in,
		buckets: make(map[uint64][]int32),
		atoms:   in.atoms[:len(in.atoms):len(in.atoms)],
	}
}

func (in *interner) lookupHash(f relational.Fact, h uint64) (int, bool) {
	for lvl := in; lvl != nil; lvl = lvl.parent {
		for _, id := range lvl.buckets[h] {
			if in.atoms[id].Equal(f) {
				return int(id), true
			}
		}
	}
	return 0, false
}

// intern returns the id of f, assigning the next dense id if new. A new
// atom is stored as given when owned is set, and otherwise with its tuple
// cloned, so f may alias scratch storage.
func (in *interner) intern(f relational.Fact, owned bool) int {
	h := f.Hash()
	if id, ok := in.lookupHash(f, h); ok {
		return id
	}
	if !owned {
		f.Args = f.Args.Clone()
	}
	id := len(in.atoms)
	in.atoms = append(in.atoms, f)
	in.buckets[h] = append(in.buckets[h], int32(id))
	return id
}

// factSet is a membership set of ground facts, hash-bucketed with exact
// confirmation (no string keys). Like the interner it may extend a frozen
// parent, giving an extension grounding a copy-on-write view of the base
// possible/fact sets.
type factSet struct {
	parent  *factSet
	buckets map[uint64][]int32
	facts   []relational.Fact
}

func newFactSet() *factSet {
	return &factSet{buckets: make(map[uint64][]int32)}
}

func (s *factSet) extend() *factSet {
	return &factSet{parent: s, buckets: make(map[uint64][]int32)}
}

func (s *factSet) has(f relational.Fact) bool {
	return s.hasHash(f, f.Hash())
}

func (s *factSet) hasHash(f relational.Fact, h uint64) bool {
	for lvl := s; lvl != nil; lvl = lvl.parent {
		for _, i := range lvl.buckets[h] {
			if lvl.facts[i].Equal(f) {
				return true
			}
		}
	}
	return false
}

// add inserts f unless present, reporting whether it was new. The fact is
// stored as given; callers pass facts that own their tuples.
func (s *factSet) add(f relational.Fact) bool {
	h := f.Hash()
	if s.hasHash(f, h) {
		return false
	}
	s.buckets[h] = append(s.buckets[h], int32(len(s.facts)))
	s.facts = append(s.facts, f)
	return true
}

// get returns the stored fact equal to f, if any, looking at this level
// only.
func (s *factSet) get(f relational.Fact) (relational.Fact, bool) {
	for _, i := range s.buckets[f.Hash()] {
		if s.facts[i].Equal(f) {
			return s.facts[i], true
		}
	}
	return relational.Fact{}, false
}

// remove deletes f and returns the stored fact, reporting whether it was
// present. The last fact moves into the freed slot, so facts stays dense
// but loses its insertion order. Only a set without children may shrink
// (Program.Update invalidates every extension of the program it moves).
func (s *factSet) remove(f relational.Fact) (relational.Fact, bool) {
	h := f.Hash()
	b := s.buckets[h]
	for j, i := range b {
		if !s.facts[i].Equal(f) {
			continue
		}
		stored := s.facts[i]
		b[j] = b[len(b)-1]
		if b = b[:len(b)-1]; len(b) == 0 {
			delete(s.buckets, h)
		} else {
			s.buckets[h] = b
		}
		last := int32(len(s.facts) - 1)
		if i != last {
			moved := s.facts[last]
			s.facts[i] = moved
			mb := s.buckets[moved.Hash()]
			for k := range mb {
				if mb[k] == last {
					mb[k] = i
					break
				}
			}
		}
		s.facts[last] = relational.Fact{}
		s.facts = s.facts[:last]
		return stored, true
	}
	return relational.Fact{}, false
}

// ruleSet deduplicates ground rules. Equality treats each rule part as a
// set (parts are duplicate-free by construction), matching the sorted-part
// string keys of the pre-hash implementation; the hash is accordingly
// order-independent within each part. A ruleSet may extend a frozen parent
// so an extension program dedups against the base rules it shares.
type ruleSet struct {
	parent  *ruleSet
	buckets map[uint64][]int32
	// rules holds the rules added at this level, in insertion order; it is
	// the emitted rule list of the level's program.
	rules []Rule
}

func newRuleSet() *ruleSet {
	return &ruleSet{buckets: make(map[uint64][]int32)}
}

func (s *ruleSet) extend() *ruleSet {
	return &ruleSet{parent: s, buckets: make(map[uint64][]int32)}
}

// add inserts r unless an equal rule exists at any level, reporting whether
// it was new.
func (s *ruleSet) add(r Rule) bool {
	h := ruleHash(r)
	for lvl := s; lvl != nil; lvl = lvl.parent {
		for _, i := range lvl.buckets[h] {
			if ruleEq(lvl.rules[i], r) {
				return false
			}
		}
	}
	s.buckets[h] = append(s.buckets[h], int32(len(s.rules)))
	s.rules = append(s.rules, r)
	return true
}

func ruleHash(r Rule) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, part := range [3][]int{r.Head, r.Pos, r.Neg} {
		var x uint64
		for _, id := range part {
			x ^= scramble(uint64(id))
		}
		h ^= x
		h *= prime
		h ^= uint64(len(part))
		h *= prime
	}
	return h
}

// scramble is the splitmix64 finalizer, spreading dense atom ids so that
// XOR-combining them within a rule part stays collision-resistant.
func scramble(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func ruleEq(a, b Rule) bool {
	return partEq(a.Head, b.Head) && partEq(a.Pos, b.Pos) && partEq(a.Neg, b.Neg)
}

// partEq is set equality of duplicate-free id lists.
func partEq(xs, ys []int) bool {
	if len(xs) != len(ys) {
		return false
	}
outer:
	for _, x := range xs {
		for _, y := range ys {
			if x == y {
				continue outer
			}
		}
		return false
	}
	return true
}

// groundAtomInto instantiates a under subst into dst's storage (reusing its
// capacity), returning the tuple. The result aliases dst; callers clone
// before retaining.
func groundAtomInto(dst relational.Tuple, a term.Atom, subst term.Subst) relational.Tuple {
	dst = dst[:0]
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, subst[t.Var])
		} else {
			dst = append(dst, t.Const)
		}
	}
	return dst
}

func groundFact(a term.Atom) relational.Fact {
	args := make(relational.Tuple, len(a.Args))
	for i, t := range a.Args {
		args[i] = t.Const
	}
	return relational.Fact{Pred: a.Pred, Args: args}
}
