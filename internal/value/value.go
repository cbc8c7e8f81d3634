// Package value implements the constant domain U of the paper, including the
// distinguished constant null.
//
// Following Section 3 of Bravo & Bertossi (EDBT 2006), a single null constant
// is used for every interpretation (unknown, inapplicable, withheld). Two
// comparison modes are provided:
//
//   - "null as ordinary constant" (Eq, Compare): the mode used when checking
//     the transformed constraint ψ_N over the projected database D^A (Def. 4),
//     where null = null holds and the unique names assumption applies to null
//     like to any other constant.
//   - three-valued SQL mode (Eq3, Compare3): any comparison involving null is
//     Unknown. This mode backs the simple/partial/full-match comparison
//     semantics and the single-row check-constraint behaviour of commercial
//     DBMSs reproduced in internal/nullsem.
package value

import (
	"fmt"
	"strconv"
)

// Kind discriminates the representations a V can take.
type Kind uint8

// The kinds of database constants.
const (
	KindNull Kind = iota // the distinguished constant null
	KindInt              // 64-bit integer constant
	KindStr              // string constant
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindStr:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// V is a constant of the database domain U. The zero value is null.
type V struct {
	kind Kind
	i    int64
	s    string
}

// Null returns the distinguished constant null.
func Null() V { return V{} }

// Int returns an integer constant.
func Int(i int64) V { return V{kind: KindInt, i: i} }

// Str returns a string constant.
func Str(s string) V { return V{kind: KindStr, s: s} }

// Kind reports the kind of v.
func (v V) Kind() Kind { return v.kind }

// IsNull reports whether v is the null constant. This is the IsNull(·)
// predicate of Definition 4 and of NOT NULL-constraints (Definition 5).
func (v V) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It is only meaningful for KindInt.
func (v V) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i, true
}

// AsStr returns the string payload. It is only meaningful for KindStr.
func (v V) AsStr() (string, bool) {
	if v.kind != KindStr {
		return "", false
	}
	return v.s, true
}

// String renders the constant the way the paper writes it: null, 42, or the
// bare string.
func (v V) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return v.s
	}
}

// AppendKey appends a compact, injective, self-delimiting binary encoding of
// v to b: one kind byte, then the payload (8 bytes little-endian for an
// integer; a 4-byte little-endian length plus the bytes for a string; nothing
// for null). The encoding depends only on the constant's content — not on any
// process-wide interning history — so keys built from it are identical across
// runs and across tenants without touching shared state.
func (v V) AppendKey(b []byte) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindInt:
		u := uint64(v.i)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	case KindStr:
		n := uint32(len(v.s))
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		b = append(b, v.s...)
	}
	return b
}

// KeyLen returns len(AppendKey(nil, v)) without building the encoding, for
// exact preallocation.
func (v V) KeyLen() int {
	switch v.kind {
	case KindInt:
		return 9
	case KindStr:
		return 5 + len(v.s)
	default:
		return 1
	}
}

// Hash continues an FNV-1a hash over v's content (kind byte plus payload).
// Equal constants hash equally; the hash never consults shared state.
func (v V) Hash(h uint64) uint64 {
	const prime = 1099511628211
	h ^= uint64(v.kind)
	h *= prime
	switch v.kind {
	case KindInt:
		u := uint64(v.i)
		for s := 0; s < 64; s += 8 {
			h ^= (u >> s) & 0xff
			h *= prime
		}
	case KindStr:
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= prime
		}
	}
	return h
}

// Key returns an injective encoding of v, suitable for use in map keys. It is
// unambiguous across kinds (a string "42" and the integer 42 differ).
func (v V) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	default:
		return "s" + strconv.Quote(v.s)
	}
}

// Eq reports v = w with null treated as an ordinary constant, so
// Eq(Null(), Null()) is true. This is the equality used for classical
// satisfaction of ψ_N per Definition 4.
func (v V) Eq(w V) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt:
		return v.i == w.i
	default:
		return v.s == w.s
	}
}

// Compare totally orders constants with null treated as an ordinary constant:
// null < every integer < every string; integers order numerically and strings
// lexicographically. The total order across kinds exists only to make results
// deterministic; constraints that compare values of different kinds are
// simply false under Less-style builtins (see Order).
func (v V) Compare(w V) int {
	if v.kind != w.kind {
		switch {
		case v.kind < w.kind:
			return -1
		default:
			return 1
		}
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		default:
			return 0
		}
	default:
		switch {
		case v.s < w.s:
			return -1
		case v.s > w.s:
			return 1
		default:
			return 0
		}
	}
}

// Bool3 is a three-valued logic value (true / false / unknown), used for the
// SQL-style comparison mode.
type Bool3 uint8

// Three-valued truth constants.
const (
	False3 Bool3 = iota
	Unknown3
	True3
)

func (b Bool3) String() string {
	switch b {
	case True3:
		return "true"
	case False3:
		return "false"
	default:
		return "unknown"
	}
}

// Eq3 reports v = w in three-valued SQL logic: Unknown if either side is
// null, otherwise a definite verdict.
func (v V) Eq3(w V) Bool3 {
	if v.IsNull() || w.IsNull() {
		return Unknown3
	}
	if v.Eq(w) {
		return True3
	}
	return False3
}

// Order reports whether v and w are order-comparable (same non-null kind) and
// the comparison result. Order comparisons across kinds, or involving null,
// report ok = false; builtin predicates treat that as false (two-valued mode)
// or unknown (three-valued mode).
func (v V) Order(w V) (cmp int, ok bool) {
	if v.kind != w.kind || v.kind == KindNull {
		return 0, false
	}
	return v.Compare(w), true
}
