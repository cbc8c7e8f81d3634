package relational

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/term"
	"repro/internal/value"
)

// joinDomain is the constant pool of the fuzzed join instances: null, two
// strings and two integers, so the joins match null against null and the
// order builtins meet both comparable and incomparable values.
var joinDomain = []value.V{value.Null(), value.Str("a"), value.Str("b"), value.Int(1), value.Int(2)}

var joinVars = []string{"X", "Y", "Z", "W"}

var joinRels = []struct {
	pred  string
	arity int
}{{"p", 1}, {"r", 2}, {"s", 2}, {"t", 3}}

// joinBytes hands out fuzz bytes as small choices, yielding 0 once the
// input runs out.
type joinBytes []byte

func (b *joinBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c) % n
}

func (b *joinBytes) term() term.T {
	if k := b.pick(len(joinVars) + 2); k < len(joinVars) {
		return term.V(joinVars[k])
	}
	return term.C(joinDomain[b.pick(len(joinDomain))])
}

// decodeJoin decodes a join problem: an instance of up to 15 facts, 1–4
// atoms with constants and repeated variables, 0–2 builtins, and a
// substitution binding some variables before the join.
func decodeJoin(data []byte) (d *Instance, atoms []term.Atom, builtins []term.Builtin, pre term.Subst) {
	b := joinBytes(data)
	d = NewInstance()
	for k := b.pick(16); k > 0; k-- {
		rel := joinRels[b.pick(len(joinRels))]
		args := make(Tuple, rel.arity)
		for j := range args {
			args[j] = joinDomain[b.pick(len(joinDomain))]
		}
		d.Insert(Fact{Pred: rel.pred, Args: args})
	}
	for k := 1 + b.pick(4); k > 0; k-- {
		rel := joinRels[b.pick(len(joinRels))]
		a := term.Atom{Pred: rel.pred, Args: make([]term.T, rel.arity)}
		for j := range a.Args {
			a.Args[j] = b.term()
		}
		atoms = append(atoms, a)
	}
	for k := b.pick(3); k > 0; k-- {
		builtins = append(builtins, term.Builtin{Op: term.CompOp(b.pick(6)), L: b.term(), R: b.term()})
	}
	pre = term.Subst{}
	for _, v := range joinVars {
		if b.pick(4) == 1 {
			pre[v] = joinDomain[b.pick(len(joinDomain))]
		}
	}
	return d, atoms, builtins, pre
}

// naiveJoin is the reference: a nested loop over Facts() in literal order,
// unifying by hand, with the builtins checked at the leaf. It appends each
// complete substitution, rendered, to out.
func naiveJoin(d *Instance, atoms []term.Atom, builtins []term.Builtin, subst term.Subst, out []string) []string {
	if len(atoms) == 0 {
		for _, b := range builtins {
			if res, ok := b.Eval(subst); !ok || !res {
				return out
			}
		}
		return append(out, subst.String())
	}
	a := atoms[0]
	for _, f := range d.Facts() {
		if f.Pred != a.Pred || len(f.Args) != len(a.Args) {
			continue
		}
		ext := subst.Clone()
		ok := true
		for j, t := range a.Args {
			want, bound := ext.Apply(t)
			if !bound {
				ext[t.Var] = f.Args[j]
			} else if !want.Eq(f.Args[j]) {
				ok = false
				break
			}
		}
		if ok {
			out = naiveJoin(d, atoms[1:], builtins, ext, out)
		}
	}
	return out
}

// FuzzJoin checks the kernel against the naive reference: PlanJoin + Join
// yield exactly the substitutions of a nested loop in literal order with
// leaf builtins, whatever order the planner picks and wherever it attaches
// the builtins; Join leaves the substitution as it found it, also when
// yield stops it early.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{})
	// r(a,b) r(b,null) r(null,null); join r(X,Y), r(Y,Z).
	f.Add([]byte{3, 1, 1, 2, 1, 2, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 2, 0, 0, 0, 0, 0})
	// Repeated variable: r(X,X), s(X,Y) with X != Y over nulls.
	f.Add([]byte{6, 1, 0, 0, 1, 1, 2, 1, 1, 1, 2, 0, 1, 2, 1, 1, 2, 1, 2, 1, 1, 0, 0, 2, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0})
	// t(X,Y,Z), p(Y), s(X,W) with X < Y and Z = a, W pre-bound to 1.
	f.Add([]byte{6, 3, 3, 4, 1, 3, 4, 3, 1, 3, 3, 0, 2, 0, 3, 0, 4, 2, 3, 3,
		2, 3, 0, 1, 2, 0, 1, 2, 0, 3, 2, 2, 0, 1, 0, 2, 4, 1, 0, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, atoms, builtins, pre := decodeJoin(data)
		want := naiveJoin(d, atoms, builtins, pre, nil)
		sort.Strings(want)

		var prevars []string
		for v := range pre {
			prevars = append(prevars, v)
		}
		steps, ready := PlanJoin(d, atoms, builtins, prevars)
		placed := len(ready)
		var order []string
		for _, st := range steps {
			placed += len(st.Builtins)
			order = append(order, st.Atom.String())
		}
		var given []string
		for _, a := range atoms {
			given = append(given, a.String())
		}
		sort.Strings(order)
		sort.Strings(given)
		if !reflect.DeepEqual(order, given) || placed != len(builtins) {
			t.Fatalf("plan of %v with %v is not a permutation placing every builtin once: %v, ready %v", atoms, builtins, steps, ready)
		}

		subst := pre.Clone()
		var got []string
		if BuiltinsHold(ready, subst) {
			Join(d, steps, subst, func() bool {
				got = append(got, subst.String())
				return true
			})
		}
		sort.Strings(got)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("join of %v with %v from %v over\n%s\ngot  %v\nwant %v", atoms, builtins, pre, d, got, want)
		}
		if subst.String() != pre.String() {
			t.Fatalf("join left %v, entered with %v", subst, pre)
		}

		if len(want) > 0 && BuiltinsHold(ready, subst) {
			calls := 0
			done := Join(d, steps, subst, func() bool {
				calls++
				return false
			})
			if done || calls != 1 || subst.String() != pre.String() {
				t.Fatalf("stopped join: completed %v after %d yields, left %v from %v", done, calls, subst, pre)
			}
		}
	})
}

// TestPlanJoinOrder pins the planner's heuristic: the most bound columns
// first, ties toward the smaller relation and then the given order, and
// each builtin at the earliest step that binds its variables.
func TestPlanJoinOrder(t *testing.T) {
	d := NewInstance(
		F("big", s("a"), s("b")), F("big", s("b"), s("c")), F("big", s("c"), s("d")),
		F("small", s("a"), s("b")),
	)
	x, y, z := term.V("X"), term.V("Y"), term.V("Z")
	big := func(l, r term.T) term.Atom { return term.NewAtom("big", l, r) }
	small := func(l, r term.T) term.Atom { return term.NewAtom("small", l, r) }
	xy := term.Builtin{Op: term.NEQ, L: x, R: y}
	zc := term.Builtin{Op: term.NEQ, L: z, R: term.CStr("c")}
	ground := term.Builtin{Op: term.EQ, L: term.CStr("a"), R: term.CStr("a")}

	steps, ready := PlanJoin(d, []term.Atom{big(x, y), small(y, z), big(z, term.CStr("d"))},
		[]term.Builtin{zc, xy, ground}, nil)
	want := []JoinStep{
		{Atom: big(z, term.CStr("d")), Builtins: []term.Builtin{zc}},
		{Atom: small(y, z)},
		{Atom: big(x, y), Builtins: []term.Builtin{xy}},
	}
	if !reflect.DeepEqual(steps, want) || !reflect.DeepEqual(ready, []term.Builtin{ground}) {
		t.Errorf("plan = %v, ready %v; want %v, ready [%v]", steps, ready, want, ground)
	}

	// Pre-bound Y: both atoms bind one column; small wins the tie, and
	// X != Y waits for X.
	steps, ready = PlanJoin(d, []term.Atom{big(x, y), small(y, z)}, []term.Builtin{xy}, []string{"Y"})
	want = []JoinStep{{Atom: small(y, z)}, {Atom: big(x, y), Builtins: []term.Builtin{xy}}}
	if !reflect.DeepEqual(steps, want) || ready != nil {
		t.Errorf("pre-bound plan = %v, ready %v; want %v", steps, ready, want)
	}

	// Equal bound columns and sizes keep the given order.
	steps, _ = PlanJoin(d, []term.Atom{big(y, z), big(x, y)}, nil, nil)
	if steps[0].Atom.String() != big(y, z).String() {
		t.Errorf("tie broken away from the given order: %v", steps)
	}
}

// TestPlanJoinAllocs pins that planning a builtin-free join allocates only
// the returned steps, for joins of up to 8 atoms with and without pre-bound
// variables.
func TestPlanJoinAllocs(t *testing.T) {
	d := NewInstance(F("r", s("a"), s("b")), F("r", s("b"), s("c")), F("s", s("a"), s("b")))
	vars := []string{"X0", "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8"}
	for n := 1; n <= 8; n++ {
		var chain []term.Atom
		for k := 0; k < n; k++ {
			pred := "r"
			if k%2 == 1 {
				pred = "s"
			}
			// Placed back to front, so the planner has to reorder.
			chain = append([]term.Atom{term.NewAtom(pred, term.V(vars[k]), term.V(vars[k+1]))}, chain...)
		}
		for _, pre := range [][]string{nil, {"X0"}} {
			allocs := testing.AllocsPerRun(50, func() { PlanJoin(d, chain, nil, pre) })
			if allocs != 1 {
				t.Errorf("%d atoms, pre %v: PlanJoin allocates %v times per call, want 1", n, pre, allocs)
			}
		}
	}
}
