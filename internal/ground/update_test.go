package ground_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/value"
)

// updateCase is a constraint set with the relations a Δ stream draws from;
// the last relation is one no constraint mentions.
type updateCase struct {
	ics  string
	rels []relational.RelKey
}

var updateCases = []updateCase{
	// cautious-reads' shape: a key, a foreign key and a NOT NULL.
	{`dept(D, M1), dept(D, M2) -> M1 = M2.
	  emp(E, D) -> dept(D, M).
	  dept(D, M), isnull(D) -> false.`,
		[]relational.RelKey{{Pred: "dept", Arity: 2}, {Pred: "emp", Arity: 2}, {Pred: "u", Arity: 2}}},
	// Example 18's RIC-cyclic set: the positive atom graph cycles.
	{`p(X, Y) -> t(X).
	  t(X) -> p(Y, X).`,
		[]relational.RelKey{{Pred: "p", Arity: 2}, {Pred: "t", Arity: 1}, {Pred: "u", Arity: 2}}},
	// A disjunctive head and a denial.
	{`p(X, Y) -> t(X) | s(Y).
	  t(X), s(X) -> false.`,
		[]relational.RelKey{{Pred: "p", Arity: 2}, {Pred: "t", Arity: 1}, {Pred: "s", Arity: 1}, {Pred: "u", Arity: 2}}},
}

var updateConsts = []value.V{value.Str("a"), value.Str("b"), value.Str("c"), value.Null()}

// canonical renders a grounding by atom names, independent of atom
// numbering and rule order: facts and rules as lines, each rule part
// sorted, all lines sorted.
func canonical(gp *ground.Program) string {
	var lines []string
	for _, f := range gp.Facts {
		lines = append(lines, gp.Atoms[f].String()+".")
	}
	names := func(ids []int) string {
		ns := make([]string, len(ids))
		for i, a := range ids {
			ns[i] = gp.Atoms[a].String()
		}
		sort.Strings(ns)
		return strings.Join(ns, ", ")
	}
	for _, r := range gp.Rules {
		lines = append(lines, names(r.Head)+" :- "+names(r.Pos)+" | not "+names(r.Neg))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// updateStream decodes a fuzz input: a constraint set, a variant and
// pruning, an instance, and a stream of Δs mixing inserts, deletes, a
// remove in one Δ and a re-add in the next, passthrough churn and Δs that
// empty a key group. Each Δ is effective against the instance before it.
type updateStream struct {
	set    *constraint.Set
	opts   repairprog.BuildOptions
	rels   []relational.RelKey
	d      *relational.Instance
	deltas []relational.Delta
}

func decodeUpdateStream(data []byte) updateStream {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tc := updateCases[next()%len(updateCases)]
	mode := next()
	us := updateStream{
		set:  parser.MustConstraints(tc.ics),
		opts: repairprog.BuildOptions{Variant: repairprog.Variant(mode & 1), PruneUnconstrained: mode&2 != 0},
		rels: tc.rels,
		d:    relational.NewInstance(),
	}
	fact := func(pick int) relational.Fact {
		rk := tc.rels[pick%len(tc.rels)]
		args := make(relational.Tuple, rk.Arity)
		for i := range args {
			args[i] = updateConsts[(pick>>(2+2*i))%len(updateConsts)]
		}
		return relational.Fact{Pred: rk.Pred, Args: args}
	}
	for n := next() % 9; n > 0; n-- {
		us.d.Insert(fact(next()))
	}
	cur := us.d.Clone()
	var readd []relational.Fact // removed by the last Δ, re-added by the next
	for steps := 0; len(data) > 0 && steps < 24; steps++ {
		var dl relational.Delta
		op, pick := next(), next()
		switch op % 5 {
		case 0, 1: // one insert or delete
			f := fact(pick)
			if cur.Has(f) {
				dl.Removed = append(dl.Removed, f)
			} else {
				dl.Added = append(dl.Added, f)
			}
		case 2: // swap a fact for another, as cautious-reads' applies do
			f, g := fact(pick), fact(pick^next())
			if cur.Has(f) && !cur.Has(g) {
				dl.Removed, dl.Added = []relational.Fact{f}, []relational.Fact{g}
			}
		case 3: // passthrough churn
			f := relational.Fact{Pred: "u", Args: relational.Tuple{updateConsts[pick%4], updateConsts[(pick>>2)%4]}}
			if cur.Has(f) {
				dl.Removed = append(dl.Removed, f)
			} else {
				dl.Added = append(dl.Added, f)
			}
		case 4: // empty the key group of a relation's first column
			rk := tc.rels[pick%len(tc.rels)]
			key := updateConsts[(pick>>2)%len(updateConsts)]
			cur.Scan(rk.Pred, rk.Arity, []relational.Binding{{Pos: 0, Val: key}}, func(t relational.Tuple) bool {
				dl.Removed = append(dl.Removed, relational.Fact{Pred: rk.Pred, Args: t.Clone()})
				return true
			})
		}
		for _, f := range readd {
			if !cur.Has(f) && !slices.ContainsFunc(dl.Added, f.Equal) {
				dl.Added = append(dl.Added, f)
			}
		}
		readd = nil
		if op&8 != 0 {
			readd = dl.Removed
		}
		for _, f := range dl.Removed {
			cur.Delete(f)
		}
		for _, f := range dl.Added {
			cur.Insert(f)
		}
		us.deltas = append(us.deltas, dl)
	}
	return us
}

// checkUpdates moves a translation's grounding along the stream, folding
// some Δs in one by one and queueing others two at a time, and compares
// it after every fold with a fresh grounding of the current program.
func checkUpdates(t *testing.T, data []byte) {
	us := decodeUpdateStream(data)
	tr, err := repairprog.BuildWith(us.d, us.set, us.opts)
	if err != nil {
		t.Skip(err)
	}
	if _, err := tr.BaseGrounding(); err != nil {
		t.Fatal(err)
	}
	cur := us.d.Clone()
	for i, dl := range us.deltas {
		for _, f := range dl.Removed {
			cur.Delete(f)
		}
		for _, f := range dl.Added {
			cur.Insert(f)
		}
		base := cur.Clone()
		if !tr.Rebase(base, dl) {
			// A relation the rules do not cover: rebuild, as a session does.
			if tr, err = repairprog.BuildWith(base, us.set, us.opts); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 1 && i+1 < len(us.deltas) {
			continue // queue this Δ with the next
		}
		gp, err := tr.BaseGrounding()
		if err != nil {
			t.Fatal(err)
		}
		prog := &logic.Program{Rules: tr.Program.Rules}
		prog.AddInstance(base)
		fresh, err := ground.Ground(prog)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonical(gp), canonical(fresh); got != want {
			t.Fatalf("step %d (Δ %v, D = %v): maintained grounding differs from a fresh one\n--- maintained\n%s\n--- fresh\n%s",
				i, dl, base, got, want)
		}
	}
}

// FuzzGroundUpdate checks Program.Update, through the translation's queued
// Δs, against grounding the current program from scratch after every fold.
func FuzzGroundUpdate(f *testing.F) {
	// cautious-reads' swap and undo on the pruned corrected program:
	// dept(a, b) and dept(a, c) conflict, and dept(a, c) is swapped for
	// dept(a, null) and back twice; then the key group of a is emptied,
	// and re-added in the next Δ.
	f.Add([]byte{0, 3, 4, 18, 33, 4, 10, 2, 33, 17, 2, 48, 17, 2, 33, 17, 2, 48, 17, 9, 0, 0, 4})
	// The RIC-cyclic set on the unpruned corrected program: an insert, an
	// emptied group re-added with the next Δ, passthrough churn and a
	// delete.
	f.Add([]byte{1, 1, 5, 0x00, 0x05, 0x11, 0x21, 0x44, 0, 0x01, 9, 0x00, 1, 0x05, 3, 0x07, 4, 0x01})
	f.Add([]byte{2, 3, 3, 0x00, 0x06, 0x0b, 0, 0x02, 1, 0x0b, 3, 0x09, 8, 0x00, 2, 0x06, 0x0c})
	f.Fuzz(checkUpdates)
}

// TestGroundUpdateStreams runs FuzzGroundUpdate's check over generated
// streams, so the plain test run covers more than the seed corpus.
func TestGroundUpdateStreams(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		data := make([]byte, 40)
		x := uint32(seed)*2654435761 + 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkUpdates(t, data) })
	}
}

// TestExtendConcurrentAfterUpdate extends one updated base from several
// goroutines at once (run under -race). The update is large enough that
// the canon's overlay flattens back into an owner engine, which Update
// must freeze again before concurrent Extends clone it.
func TestExtendConcurrentAfterUpdate(t *testing.T) {
	tc := updateCases[0]
	d := relational.NewInstance(relational.F("dept", value.Str("d0"), value.Str("m0")))
	tr, err := repairprog.BuildWith(d, parser.MustConstraints(tc.ics), repairprog.BuildOptions{PruneUnconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.BaseGrounding(); err != nil {
		t.Fatal(err)
	}
	var dl relational.Delta
	cur := d.Clone()
	for i := 0; i < 300; i++ {
		f := relational.F("emp", value.Str(fmt.Sprintf("e%d", i)), value.Str(fmt.Sprintf("d%d", i%7)))
		cur.Insert(f)
		dl.Added = append(dl.Added, f)
	}
	if !tr.Rebase(cur, dl) {
		t.Fatal("Rebase refused an update of a constrained relation")
	}
	if _, err := tr.BaseGrounding(); err != nil {
		t.Fatal(err)
	}
	q := parser.MustQuery(`q(E) :- emp(E, D), dept(D, M).`)
	want, err := tr.GroundWithQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 4)
	done := make(chan struct{})
	for i := range got {
		go func() {
			defer func() { done <- struct{}{} }()
			gp, err := tr.GroundWithQuery(q)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = gp.String()
		}()
	}
	for range got {
		<-done
	}
	for i, s := range got {
		if s != want.String() {
			t.Errorf("goroutine %d: extension differs from the sequential one", i)
		}
	}
}
