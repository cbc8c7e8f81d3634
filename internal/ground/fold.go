package ground

import "sort"

// truth is an atom's value as decided by folding: true and false atoms
// hold in every stable model or in none, and no emitted rule mentions them.
type truth uint8

const (
	undecided truth = iota
	decidedTrue
	decidedFalse
)

// Occurrence kinds, kept in the low two bits of an occurrence entry.
const (
	occHead = iota
	occPos
	occNeg
)

// settle folds the live rule instances of one grounding level (raw, in
// emission order) into the level's rule set and returns the atoms it
// decides true, ascending. The level owns the atom ids from lo up; every
// lower id belongs to a parent level, and its value (in st.val) is final:
// an extension's heads derive only fresh relations, so no rule of this
// level can derive a parent atom. Atoms from lo up whose st.val is already
// set (a base level's input facts) keep it; the rest start undecided.
//
// One linear propagation over per-atom occurrence lists and a work queue
// decides the level's atoms:
//
//   - a live rule with one head atom and no undecided body literal makes
//     its head true;
//   - an atom of the level that is in the head of no live rule is false;
//
// where a rule dies once a head atom is true, a positive body atom false,
// or a negated body atom true. The surviving rules keep only their
// undecided literals, copied out of raw's slab into one slab of their own,
// and rules that become equal merge into the first. The result is a least
// fixpoint, so it does not depend on the order in which the queue decides
// atoms (DESIGN §8).
func settle(st *extState, raw *rawSet, lo int) []int {
	n := len(st.in.atoms)
	val := append(st.val, make([]truth, n-len(st.val))...)
	st.val = val
	local := func(a int) bool { return a >= lo && val[a] == undecided }

	// pending counts a rule's undecided body literals, or is -1 once the
	// rule is dead; heads counts the live rules with an atom in the head.
	pending := make([]int32, len(raw.spans))
	heads := make([]int32, n-lo)
	start := make([]int32, n-lo+1)
	for ri := range raw.spans {
		r := raw.rule(ri)
		if raw.spans[ri].dead || dead(val, r) {
			pending[ri] = -1
			continue
		}
		for _, a := range r.Head {
			if local(a) {
				heads[a-lo]++
				start[a-lo+1]++
			}
		}
		for _, part := range [2][]int{r.Pos, r.Neg} {
			for _, a := range part {
				if val[a] == undecided {
					pending[ri]++
					if a >= lo {
						start[a-lo+1]++
					}
				}
			}
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	occ := make([]int32, start[len(start)-1])
	fill := append([]int32(nil), start[:len(start)-1]...)
	add := func(a, ri, kind int) {
		occ[fill[a-lo]] = int32(ri<<2 | kind)
		fill[a-lo]++
	}
	for ri := range raw.spans {
		if pending[ri] < 0 {
			continue
		}
		r := raw.rule(ri)
		for _, a := range r.Head {
			if local(a) {
				add(a, ri, occHead)
			}
		}
		for _, a := range r.Pos {
			if local(a) {
				add(a, ri, occPos)
			}
		}
		for _, a := range r.Neg {
			if local(a) {
				add(a, ri, occNeg)
			}
		}
	}

	var queue, trues []int
	decide := func(a int, v truth) {
		val[a] = v
		queue = append(queue, a)
		if v == decidedTrue {
			trues = append(trues, a)
		}
	}
	fire := func(ri int) {
		if h := raw.rule(ri).Head; len(h) == 1 && val[h[0]] == undecided {
			decide(h[0], decidedTrue)
		}
	}
	kill := func(ri int) {
		pending[ri] = -1
		for _, a := range raw.rule(ri).Head {
			if local(a) {
				if heads[a-lo]--; heads[a-lo] == 0 {
					decide(a, decidedFalse)
				}
			}
		}
	}
	for a := lo; a < n; a++ {
		if val[a] == undecided && heads[a-lo] == 0 {
			decide(a, decidedFalse)
		}
	}
	for ri := range raw.spans {
		if pending[ri] == 0 {
			fire(ri)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		isTrue := val[a] == decidedTrue
		for _, o := range occ[start[a-lo]:start[a-lo+1]] {
			ri, kind := int(o>>2), int(o&3)
			if pending[ri] < 0 {
				continue
			}
			switch {
			case kind == occHead && isTrue, kind == occPos && !isTrue, kind == occNeg && isTrue:
				kill(ri)
			case kind != occHead:
				if pending[ri]--; pending[ri] == 0 {
					fire(ri)
				}
			}
		}
	}

	// The surviving rules' literals, copied into one slab sized up front.
	size := 0
	for ri := range raw.spans {
		if pending[ri] >= 0 {
			r := raw.rule(ri)
			size += len(r.Head) + countUndecided(val, r.Pos) + countUndecided(val, r.Neg)
		}
	}
	slab := make([]int, 0, size)
	for ri := range raw.spans {
		if pending[ri] < 0 {
			continue
		}
		r := raw.rule(ri)
		var out Rule
		slab, out.Head = keepUndecided(slab, val, r.Head)
		slab, out.Pos = keepUndecided(slab, val, r.Pos)
		slab, out.Neg = keepUndecided(slab, val, r.Neg)
		st.rs.add(out)
	}
	sort.Ints(trues)
	return trues
}

// dead reports whether the rule is satisfied or blocked by decided atoms
// alone: a head atom true, a positive body atom false or a negated one
// true.
func dead(val []truth, r Rule) bool {
	for _, a := range r.Head {
		if val[a] == decidedTrue {
			return true
		}
	}
	for _, a := range r.Pos {
		if val[a] == decidedFalse {
			return true
		}
	}
	for _, a := range r.Neg {
		if val[a] == decidedTrue {
			return true
		}
	}
	return false
}

// countUndecided counts a rule part's undecided atoms.
func countUndecided(val []truth, part []int) int {
	k := 0
	for _, a := range part {
		if val[a] == undecided {
			k++
		}
	}
	return k
}

// keepUndecided appends a rule part's undecided atoms to slab and returns
// the extended slab with the kept atoms as a capacity-capped part of it,
// nil when none is kept.
func keepUndecided(slab []int, val []truth, part []int) ([]int, []int) {
	start := len(slab)
	for _, a := range part {
		if val[a] == undecided {
			slab = append(slab, a)
		}
	}
	if len(slab) == start {
		return slab, nil
	}
	return slab, slab[start:len(slab):len(slab)]
}
