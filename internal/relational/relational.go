// Package relational implements the database substrate of the paper: finite
// relational instances over a schema Σ = (U, R, B) whose domain U contains
// the distinguished constant null (Section 2). Instances are finite sets of
// ground atoms with set semantics (the paper's standing assumption after
// Example 7), and the package provides the projection D^A of Definition 3,
// active domains, and the symmetric difference Δ(D, D′) underlying repairs.
package relational

import (
	"sort"
	"strings"

	"repro/internal/value"
)

// Tuple is a finite sequence of constants from U.
type Tuple []value.V

// Key returns an injective encoding of the tuple for use in set membership:
// each constant's self-delimiting content encoding (value.V.AppendKey). The
// encoding is compact, allocation-cheap and stable across runs — it depends
// only on the tuple's content, never on interning history — but not
// human-readable; use String for display.
func (t Tuple) Key() string {
	return string(appendTupleKey(make([]byte, 0, tupleKeyLen(t)), t))
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Equal reports whether two tuples are identical (null compares equal to
// null, per the ordinary-constant treatment of Definition 4).
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Eq(u[i]) {
			return false
		}
	}
	return true
}

// HasNull reports whether any position of the tuple is null.
func (t Tuple) HasNull() bool {
	for _, v := range t {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Project returns the subtuple at the given positions (0-based), in the order
// given. This is Π_A(t̄) from Definition 3.
func (t Tuple) Project(positions []int) Tuple {
	p := make(Tuple, len(positions))
	for i, pos := range positions {
		p[i] = t[pos]
	}
	return p
}

// Compare orders tuples lexicographically for deterministic output.
func (t Tuple) Compare(u Tuple) int {
	for i := 0; i < len(t) && i < len(u); i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// Fact is a ground database atom P(c1, ..., cn).
type Fact struct {
	Pred string
	Args Tuple
}

// F builds a Fact from bare values.
func F(pred string, args ...value.V) Fact {
	return Fact{Pred: pred, Args: Tuple(args)}
}

func (f Fact) String() string {
	if len(f.Args) == 0 {
		return f.Pred
	}
	return f.Pred + f.Args.String()
}

// Key returns an injective encoding of the fact: length-prefixed predicate
// name, arity, then the argument content encodings. Keys are self-delimiting,
// so concatenations of fact keys (Instance.Key) remain injective — and, being
// content-addressed, identical across runs and processes.
func (f Fact) Key() string {
	b := make([]byte, 0, 8+len(f.Pred)+tupleKeyLen(f.Args))
	b = appendU32(b, uint32(len(f.Pred)))
	b = append(b, f.Pred...)
	b = appendU32(b, uint32(len(f.Args)))
	b = appendTupleKey(b, f.Args)
	return string(b)
}

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool { return f.Pred == g.Pred && f.Args.Equal(g.Args) }

// Hash returns the 64-bit identity hash of the fact (the per-fact term of
// Instance.Fingerprint). Equal facts hash equally; distinct facts collide
// only with FNV-level probability, so hot-path dedup maps can bucket by this
// hash and confirm with Equal instead of materializing string keys.
func (f Fact) Hash() uint64 { return factHash(f) }

// Compare orders facts by predicate, then tuple, for deterministic output.
func (f Fact) Compare(g Fact) int {
	if f.Pred != g.Pred {
		if f.Pred < g.Pred {
			return -1
		}
		return 1
	}
	return f.Args.Compare(g.Args)
}

// SortFacts sorts a fact slice in place and returns it.
func SortFacts(fs []Fact) []Fact {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Compare(fs[j]) < 0 })
	return fs
}

// Delta is the symmetric difference Δ(D, D′) split into its two halves:
// Removed = D \ D′ and Added = D′ \ D, each sorted.
type Delta struct {
	Removed []Fact
	Added   []Fact
}

// Size returns |Δ|.
func (dl Delta) Size() int { return len(dl.Removed) + len(dl.Added) }

// Facts returns all atoms of the symmetric difference, sorted.
func (dl Delta) Facts() []Fact {
	out := make([]Fact, 0, dl.Size())
	out = append(out, dl.Removed...)
	out = append(out, dl.Added...)
	return SortFacts(out)
}

func (dl Delta) String() string {
	fs := dl.Facts()
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
