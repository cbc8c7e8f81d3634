// Package nullsem implements the paper's null-aware integrity-constraint
// satisfaction semantics |=_N (Definitions 4 and 5) together with the
// comparison semantics discussed in Section 3: classical first-order
// satisfaction, the all-exempt semantics of Bravo & Bertossi (CASCON 2004,
// the paper's [10]), and the SQL:2003 simple-, partial- and full-match
// semantics implemented by commercial DBMSs.
//
// The primary evaluator works directly on the original instance D. This is
// equivalent to the paper's formulation over the projected instance D^A(ψ)
// because non-relevant variables occur exactly once in ψ and therefore
// impose no join or matching conditions; package nullsem also ships the
// literal projection-based evaluator (oracle.go) and the equivalence is
// property-tested.
package nullsem

import (
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/relational"
	"repro/internal/term"
	"repro/internal/value"
)

// Semantics selects an IC-satisfaction semantics for databases with nulls.
type Semantics uint8

const (
	// NullAware is the paper's |=_N (Definition 4): a constraint is
	// satisfied if a relevant antecedent attribute is null, or the
	// consequent holds over the relevant attributes with null treated as
	// an ordinary constant.
	NullAware Semantics = iota
	// ClassicFO is plain first-order satisfaction with null treated as an
	// ordinary constant (the pre-null literature: the paper's [2]).
	ClassicFO
	// AllExempt is the semantics of the paper's [10]: a tuple with a null
	// anywhere never causes an inconsistency.
	AllExempt
	// SimpleMatch is the SQL:2003 simple-match semantics (the one
	// commercial DBMSs implement): null in any relevant antecedent
	// attribute exempts the tuple; witnesses must match with non-null
	// equality.
	SimpleMatch
	// PartialMatch is the SQL:2003 partial-match semantics: only a fully
	// null antecedent key is exempt; witnesses must agree, non-null, on
	// the non-null antecedent values.
	PartialMatch
	// FullMatch is the SQL:2003 full-match semantics: a partially null
	// antecedent key is an outright violation; otherwise witnesses must
	// match exactly with non-null equality.
	FullMatch
)

func (s Semantics) String() string {
	switch s {
	case NullAware:
		return "null-aware"
	case ClassicFO:
		return "classic-fo"
	case AllExempt:
		return "all-exempt"
	case SimpleMatch:
		return "simple-match"
	case PartialMatch:
		return "partial-match"
	default:
		return "full-match"
	}
}

// AllSemantics lists every implemented semantics, in presentation order.
func AllSemantics() []Semantics {
	return []Semantics{NullAware, ClassicFO, AllExempt, SimpleMatch, PartialMatch, FullMatch}
}

// Violation records one falsifying assignment of an IC: the substitution
// over the antecedent variables and the ground body atoms supporting it.
type Violation struct {
	IC      *constraint.IC
	Subst   term.Subst
	Support []relational.Fact
}

func (v Violation) String() string {
	parts := make([]string, len(v.Support))
	for i, f := range v.Support {
		parts[i] = f.String()
	}
	return fmt.Sprintf("%s violated by %s via %s", v.IC.Name, strings.Join(parts, ", "), v.Subst)
}

// NNCViolation records a fact violating a NOT NULL-constraint.
type NNCViolation struct {
	NNC  *constraint.NNC
	Fact relational.Fact
}

func (v NNCViolation) String() string {
	return fmt.Sprintf("%s violated by %s", v.NNC.Name, v.Fact)
}

// icContext caches the per-constraint analysis shared by all checks.
type icContext struct {
	ic      *constraint.IC
	counts  map[string]int // total occurrences per variable in ψ
	body    map[string]bool
	varList []string // body variables in first-occurrence order (subst keys)
}

func newICContext(ic *constraint.IC) *icContext {
	var all []string
	for _, a := range ic.Body {
		all = a.Vars(all)
	}
	for _, a := range ic.Head {
		all = a.Vars(all)
	}
	for _, b := range ic.Phi {
		all = b.Vars(all)
	}
	counts := map[string]int{}
	for _, v := range all {
		counts[v]++
	}
	varList := ic.BodyVars()
	body := map[string]bool{}
	for _, v := range varList {
		body[v] = true
	}
	return &icContext{ic: ic, counts: counts, body: body, varList: varList}
}

// substKey is a canonical injective encoding of an antecedent assignment: the
// content encodings of the body variables' values, in first-occurrence order
// (self-delimiting, so the concatenation stays injective). All body variables
// must be bound (which every full body join guarantees).
func (c *icContext) substKey(subst term.Subst) string {
	b := make([]byte, 0, 10*len(c.varList))
	for _, v := range c.varList {
		b = subst[v].AppendKey(b)
	}
	return string(b)
}

// relevantVar reports whether v occupies a relevant position, i.e. occurs
// at least twice in ψ (Definition 2).
func (c *icContext) relevantVar(v string) bool { return c.counts[v] >= 2 }

// joinBody enumerates, in body order, every extension of subst whose ground
// body atoms all belong to d, treating null as an ordinary constant, and
// records in support[j] the fact matched by body[j]. Atoms before i are
// already resolved, as is the one at skip (-1 for none), which the caller
// matched to an anchor fact it recorded in support[skip]. Each atom is
// resolved by an indexed scan on its bound columns, so the join cost tracks
// the matching tuples rather than the relation sizes. Body order is the
// contract: it fixes the deterministic first violation and the support
// positions. yield returns false to stop the enumeration early; joinBody
// reports whether it completed.
func joinBody(d *relational.Instance, body []term.Atom, subst term.Subst, support []relational.Fact, skip, i int, yield func(term.Subst, []relational.Fact) bool) bool {
	if i == skip {
		i++
	}
	if i == len(body) {
		return yield(subst, support)
	}
	a := body[i]
	cont := true
	d.Scan(a.Pred, a.Arity(), relational.AtomBindings(a, subst), func(tuple relational.Tuple) bool {
		bound, ok := relational.MatchAtom(tuple, a, subst)
		if !ok {
			return true
		}
		support[i] = relational.Fact{Pred: a.Pred, Args: tuple}
		cont = joinBody(d, body, subst, support, skip, i+1, yield)
		relational.Unbind(subst, bound)
		return cont
	})
	return cont
}

// joinAll is joinBody from scratch: an empty substitution, no anchor.
func joinAll(d *relational.Instance, body []term.Atom, yield func(term.Subst, []relational.Fact) bool) {
	joinBody(d, body, term.Subst{}, make([]relational.Fact, len(body)), -1, 0, yield)
}

// exempt reports whether the antecedent assignment is exempt from the
// constraint under the given semantics; definite reports a forced verdict
// for FullMatch (a partially null key violates no matter the witnesses).
func (c *icContext) exempt(sem Semantics, subst term.Subst, support []relational.Fact) (exempt, forcedViolation bool) {
	switch sem {
	case ClassicFO:
		return false, false
	case AllExempt:
		for _, f := range support {
			if f.Args.HasNull() {
				return true, false
			}
		}
		return false, false
	case NullAware, SimpleMatch:
		for v, val := range subst {
			if c.relevantVar(v) && val.IsNull() {
				return true, false
			}
		}
		return false, false
	default: // PartialMatch, FullMatch
		total, nulls := 0, 0
		for v, val := range subst {
			if !c.relevantVar(v) {
				continue
			}
			total++
			if val.IsNull() {
				nulls++
			}
		}
		if total > 0 && nulls == total {
			return true, false
		}
		if sem == FullMatch && nulls > 0 {
			return false, true
		}
		return false, false
	}
}

// phiHolds evaluates the disjunction ϕ under the semantics' comparison
// logic: two-valued with null as an ordinary constant for NullAware /
// ClassicFO / AllExempt, three-valued (unknown passes) for the SQL
// semantics, matching the DBMS behaviour of Example 6.
func phiHolds(sem Semantics, phi []term.Builtin, subst term.Subst) bool {
	for _, b := range phi {
		switch sem {
		case SimpleMatch, PartialMatch, FullMatch:
			if res, ok := b.Eval3(subst); ok && res != value.False3 {
				return true
			}
		default:
			if res, ok := b.Eval(subst); ok && res {
				return true
			}
		}
	}
	return false
}

// witnessMatches reports whether tuple can serve as a witness for head atom
// a under the semantics. exists tracks bindings of repeated existential
// variables across positions of this atom.
func (c *icContext) witnessMatches(sem Semantics, a term.Atom, tuple relational.Tuple, subst term.Subst) bool {
	exists := map[string]value.V{}
	for i, t := range a.Args {
		var want value.V
		haveWant := false
		switch {
		case !t.IsVar():
			want, haveWant = t.Const, true
		case c.body[t.Var]:
			want, haveWant = subst[t.Var], true
		default: // existential variable
			switch sem {
			case ClassicFO:
				// Classical satisfaction constrains every
				// existential position for consistency.
				if prev, seen := exists[t.Var]; seen {
					if !tuple[i].Eq(prev) {
						return false
					}
				} else {
					exists[t.Var] = tuple[i]
				}
				continue
			default:
				if !c.relevantVar(t.Var) {
					continue // projected away by A(ψ)
				}
				if prev, seen := exists[t.Var]; seen {
					want, haveWant = prev, true
				} else {
					exists[t.Var] = tuple[i]
					continue
				}
			}
		}
		if !haveWant {
			continue
		}
		switch sem {
		case NullAware, ClassicFO, AllExempt:
			if !tuple[i].Eq(want) {
				return false
			}
		case PartialMatch:
			if want.IsNull() {
				if tuple[i].IsNull() {
					return false
				}
				continue
			}
			if tuple[i].Eq3(want) != value.True3 {
				return false
			}
		default: // SimpleMatch, FullMatch: non-null equality
			if tuple[i].Eq3(want) != value.True3 {
				return false
			}
		}
	}
	return true
}

// witnessBindings derives the index-servable columns for a witness scan of
// head atom a: constants and body-variable positions whose comparison under
// sem is plain interned equality. possible is false when the wanted value at
// some position already rules out every witness (a null want under the
// non-null-equality SQL semantics), letting the caller skip the scan.
func (c *icContext) witnessBindings(sem Semantics, a term.Atom, subst term.Subst) (bs []relational.Binding, possible bool) {
	for i, t := range a.Args {
		var want value.V
		switch {
		case !t.IsVar():
			want = t.Const
		case c.body[t.Var]:
			want = subst[t.Var]
		default:
			continue // existential: handled by witnessMatches
		}
		switch sem {
		case NullAware, ClassicFO, AllExempt:
			// Plain Eq: interned-id equality, null included.
			bs = append(bs, relational.Binding{Pos: i, Val: want})
		case SimpleMatch, FullMatch:
			// Eq3 == True3 requires a non-null want.
			if want.IsNull() {
				return nil, false
			}
			bs = append(bs, relational.Binding{Pos: i, Val: want})
		default: // PartialMatch
			// A null want demands a non-null witness value — not an
			// equality; leave it to witnessMatches.
			if !want.IsNull() {
				bs = append(bs, relational.Binding{Pos: i, Val: want})
			}
		}
	}
	return bs, true
}

// consequentHolds reports whether some head atom has a witness in d under
// the given antecedent assignment, probing the witness relation through the
// index on the bound columns.
func (c *icContext) consequentHolds(sem Semantics, d *relational.Instance, subst term.Subst) bool {
	for _, a := range c.ic.Head {
		bs, possible := c.witnessBindings(sem, a, subst)
		if !possible {
			continue
		}
		found := false
		d.Scan(a.Pred, a.Arity(), bs, func(tuple relational.Tuple) bool {
			if c.witnessMatches(sem, a, tuple, subst) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// CheckIC returns every violation of a single IC in d under the given
// semantics. The returned substitutions cover all antecedent variables.
func CheckIC(d *relational.Instance, ic *constraint.IC, sem Semantics) []Violation {
	return newICContext(ic).violations(d, sem)
}

// violations is the one scratch all-violations loop: every body join of the
// IC on d, confirmed by violationAt, in body-join order.
func (c *icContext) violations(d *relational.Instance, sem Semantics) []Violation {
	var out []Violation
	joinAll(d, c.ic.Body, func(subst term.Subst, support []relational.Fact) bool {
		if v, ok := violationAt(c, d, sem, subst, support); ok {
			out = append(out, v)
		}
		return true
	})
	return out
}

// first is the one scratch first-violation loop: it stops the body join at
// the first assignment violationAt confirms.
func (c *icContext) first(d *relational.Instance, sem Semantics) (Violation, bool) {
	var out Violation
	found := false
	joinAll(d, c.ic.Body, func(subst term.Subst, support []relational.Fact) bool {
		if v, bad := violationAt(c, d, sem, subst, support); bad {
			out, found = v, true
			return false
		}
		return true
	})
	return out, found
}

func violationAt(c *icContext, d *relational.Instance, sem Semantics, subst term.Subst, support []relational.Fact) (Violation, bool) {
	ex, forced := c.exempt(sem, subst, support)
	if ex {
		return Violation{}, false
	}
	if !forced {
		if phiHolds(sem, c.ic.Phi, subst) {
			return Violation{}, false
		}
		if c.consequentHolds(sem, d, subst) {
			return Violation{}, false
		}
	}
	sup := make([]relational.Fact, len(support))
	for i, f := range support {
		sup[i] = relational.Fact{Pred: f.Pred, Args: f.Args.Clone()}
	}
	return Violation{IC: c.ic, Subst: subst.Clone(), Support: sup}, true
}

// SatisfiesIC reports d |= ic under the given semantics, stopping at the
// first violation.
func SatisfiesIC(d *relational.Instance, ic *constraint.IC, sem Semantics) bool {
	_, bad := FirstViolationIC(d, ic, sem)
	return !bad
}

// CheckNNC returns the facts of d violating the NOT NULL-constraint.
// NNC satisfaction is classical under every semantics (Definition 5).
// The scan is index-backed on the constrained column (null is an ordinary
// constant, so "is null at position p" is an equality probe).
func CheckNNC(d *relational.Instance, n *constraint.NNC) []relational.Fact {
	var out []relational.Fact
	d.Scan(n.Pred, n.Arity, []relational.Binding{{Pos: n.Pos, Val: value.Null()}}, func(tuple relational.Tuple) bool {
		out = append(out, relational.Fact{Pred: n.Pred, Args: tuple})
		return true
	})
	return out
}

// FirstViolationIC returns a deterministic first violation of a single IC,
// stopping the body join as soon as one is found. It is the hot probe of the
// repair search, which only ever needs one violation per state.
func FirstViolationIC(d *relational.Instance, ic *constraint.IC, sem Semantics) (Violation, bool) {
	return newICContext(ic).first(d, sem)
}

// FirstViolationNNC returns a deterministic first fact violating the NOT
// NULL-constraint, if any, without materializing the full violation list.
func FirstViolationNNC(d *relational.Instance, n *constraint.NNC) (relational.Fact, bool) {
	var out relational.Fact
	found := false
	d.Scan(n.Pred, n.Arity, []relational.Binding{{Pos: n.Pos, Val: value.Null()}}, func(tuple relational.Tuple) bool {
		out, found = relational.Fact{Pred: n.Pred, Args: tuple}, true
		return false
	})
	return out, found
}

// Report collects every violation of a constraint set.
type Report struct {
	IC  []Violation
	NNC []NNCViolation
}

// Consistent reports whether the report is empty.
func (r Report) Consistent() bool { return len(r.IC) == 0 && len(r.NNC) == 0 }

func (r Report) String() string {
	if r.Consistent() {
		return "consistent"
	}
	var lines []string
	for _, v := range r.IC {
		lines = append(lines, v.String())
	}
	for _, v := range r.NNC {
		lines = append(lines, v.String())
	}
	return strings.Join(lines, "\n")
}

// Check returns all violations of the set in d under the given semantics.
func Check(d *relational.Instance, s *constraint.Set, sem Semantics) Report {
	var r Report
	for _, ic := range s.ICs {
		r.IC = append(r.IC, CheckIC(d, ic, sem)...)
	}
	for _, n := range s.NNCs {
		for _, f := range CheckNNC(d, n) {
			r.NNC = append(r.NNC, NNCViolation{NNC: n, Fact: f})
		}
	}
	return r
}

// Satisfies reports D |=_N IC for sem == NullAware, and the corresponding
// judgment for the other semantics.
func Satisfies(d *relational.Instance, s *constraint.Set, sem Semantics) bool {
	for _, ic := range s.ICs {
		if !SatisfiesIC(d, ic, sem) {
			return false
		}
	}
	for _, n := range s.NNCs {
		if len(CheckNNC(d, n)) > 0 {
			return false
		}
	}
	return true
}

// InsertionAllowed reports whether inserting f into d keeps the database
// consistent under the given semantics — the DBMS behaviour the paper probes
// in Examples 5 and 6 ("the insertion would be rejected by DB2").
func InsertionAllowed(d *relational.Instance, s *constraint.Set, f relational.Fact, sem Semantics) bool {
	if d.Has(f) {
		return Satisfies(d, s, sem)
	}
	d2 := d.Clone()
	d2.Insert(f)
	return Satisfies(d2, s, sem)
}
