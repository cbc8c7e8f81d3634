package constraint

import (
	"fmt"
	"sort"

	"repro/internal/term"
)

// FuncDep is a functional dependency R: K → A recognized inside an IC of the
// two-atom check-constraint shape
//
//	R(x̄, y, w̄), R(x̄, y′, w̄′) → y = y′
//
// where the key positions x̄ repeat the same variable across both atoms, the
// dependent position carries two distinct variables equated by the single
// builtin, and every remaining position holds a variable occurring nowhere
// else. This is the constraint class the repair-less direct engine
// (internal/direct) handles: under the paper's null-aware semantics a tuple
// with null in a key or dependent position is exempt (those positions are
// exactly the relevant attributes A(ψ) of Definition 2), and conflicts are
// confined to key groups, which is what makes repair enumeration avoidable.
type FuncDep struct {
	// IC is the originating constraint.
	IC *IC
	// Pred and Arity identify the constrained relation.
	Pred  string
	Arity int
	// KeyPos are the 0-based left-hand-side positions, ascending. May be
	// empty: an FD with an empty key constrains the whole relation to a
	// single dependent value.
	KeyPos []int
	// DepPos is the 0-based dependent (right-hand-side) position.
	DepPos int
}

func (fd FuncDep) String() string {
	return fmt.Sprintf("%s: %v -> %d", fd.Pred, fd.KeyPos, fd.DepPos)
}

// AsFD recognizes the FD shape. It is purely syntactic: ok is false for any
// constraint not of the exact two-atom single-equality form, even if it is
// semantically equivalent to an FD.
func (ic *IC) AsFD() (FuncDep, bool) {
	if len(ic.Body) != 2 || len(ic.Head) != 0 || len(ic.Phi) != 1 {
		return FuncDep{}, false
	}
	a, b := ic.Body[0], ic.Body[1]
	if a.Pred != b.Pred || a.Arity() != b.Arity() {
		return FuncDep{}, false
	}
	phi := ic.Phi[0]
	if phi.Op != term.EQ || phi.Offset != 0 || !phi.L.IsVar() || !phi.R.IsVar() || phi.L.Var == phi.R.Var {
		return FuncDep{}, false
	}
	// Every argument must be a variable, distinct within its atom.
	count := map[string]int{}
	seenA := map[string]bool{}
	seenB := map[string]bool{}
	for i := 0; i < a.Arity(); i++ {
		ta, tb := a.Args[i], b.Args[i]
		if !ta.IsVar() || !tb.IsVar() {
			return FuncDep{}, false
		}
		if seenA[ta.Var] || seenB[tb.Var] {
			return FuncDep{}, false
		}
		seenA[ta.Var] = true
		seenB[tb.Var] = true
		count[ta.Var]++
		count[tb.Var]++
	}
	fd := FuncDep{IC: ic, Pred: a.Pred, Arity: a.Arity(), DepPos: -1}
	for i := 0; i < a.Arity(); i++ {
		va, vb := a.Args[i].Var, b.Args[i].Var
		switch {
		case va == vb:
			// Key position: same variable joined across both atoms. It must
			// occur nowhere else (in particular not in ϕ).
			if count[va] != 2 {
				return FuncDep{}, false
			}
			fd.KeyPos = append(fd.KeyPos, i)
		case (va == phi.L.Var && vb == phi.R.Var) || (va == phi.R.Var && vb == phi.L.Var):
			// Dependent position: the two variables the equality links.
			if fd.DepPos >= 0 || count[va] != 1 || count[vb] != 1 {
				return FuncDep{}, false
			}
			fd.DepPos = i
		default:
			// Payload position: both variables must be fresh (occur exactly
			// once in the whole constraint) and distinct from ϕ's variables.
			if count[va] != 1 || count[vb] != 1 ||
				va == phi.L.Var || va == phi.R.Var || vb == phi.L.Var || vb == phi.R.Var {
				return FuncDep{}, false
			}
		}
	}
	if fd.DepPos < 0 {
		return FuncDep{}, false
	}
	sort.Ints(fd.KeyPos)
	return fd, true
}

// Analysis is the constraint-class summary the engine router consumes: a set
// is FDOnly iff it contains no NOT NULL-constraints, every IC is an FD
// (AsFD), and no relation carries more than one FD. Under those conditions
// the repair lattice factorizes per key group and the direct engine's
// polynomial classification is exact; any other set must go through the
// repair engines.
type Analysis struct {
	// FDOnly reports whether the whole set is in the direct engine's scope.
	FDOnly bool
	// FDs holds the recognized dependencies, one per relation, in IC order.
	// Populated only when FDOnly.
	FDs []FuncDep
	// Reason names the first disqualifier when !FDOnly, for diagnostics.
	Reason string
}

// Analyze classifies the set for engine routing.
func Analyze(s *Set) Analysis {
	if len(s.NNCs) > 0 {
		return Analysis{Reason: fmt.Sprintf("NOT NULL-constraint %s (NNCs need repair semantics)", s.NNCs[0].Name)}
	}
	byRel := map[PredSig]string{}
	var fds []FuncDep
	for _, ic := range s.ICs {
		fd, ok := ic.AsFD()
		if !ok {
			return Analysis{Reason: fmt.Sprintf("constraint %s is %s, not a functional dependency", ic.Name, ic.Classify())}
		}
		sig := PredSig{Name: fd.Pred, Arity: fd.Arity}
		if prev, dup := byRel[sig]; dup {
			return Analysis{Reason: fmt.Sprintf("relation %s carries two FDs (%s, %s); direct scope is one FD per relation", sig, prev, ic.Name)}
		}
		byRel[sig] = ic.Name
		fds = append(fds, fd)
	}
	return Analysis{FDOnly: true, FDs: fds}
}

// FD builds the functional dependency key -> det on relation pred/arity:
// one constraint of form (1) per determined attribute, each with a single
// equality in the consequent, as the paper prescribes. Positions are
// 0-based. The variables are upper-case (X1, Y2, ...), so the constraints
// render as parser-valid source.
func FD(pred string, arity int, key []int, det []int) []*IC {
	keySet := map[int]bool{}
	for _, k := range key {
		keySet[k] = true
	}
	var out []*IC
	for _, d := range det {
		if keySet[d] {
			continue
		}
		left := make([]term.T, arity)
		right := make([]term.T, arity)
		for i := range left {
			left[i] = term.V(fmt.Sprintf("X%d", i+1))
			if keySet[i] {
				right[i] = left[i]
			} else {
				right[i] = term.V(fmt.Sprintf("Y%d", i+1))
			}
		}
		out = append(out, &IC{
			Name: fmt.Sprintf("fd_%s_%d", pred, d+1),
			Body: []term.Atom{
				{Pred: pred, Args: left},
				{Pred: pred, Args: right},
			},
			Phi: []term.Builtin{{Op: term.EQ, L: left[d], R: right[d]}},
		})
	}
	return out
}
