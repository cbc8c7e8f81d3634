package ground

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/term"
)

func TestExtendConflictOnBaseRelation(t *testing.T) {
	gp := mustGround(t, &logic.Program{
		Facts: []term.Atom{atom("q", ca("a"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
		},
	})
	cases := []struct {
		name string
		head term.Atom
	}{
		{"fact relation", atom("q", ca("z"))},
		{"derived relation", atom("p", ca("z"))},
	}
	for _, tc := range cases {
		_, err := gp.Extend([]logic.Rule{
			{Head: []term.Atom{tc.head}, Pos: []term.Atom{atom("q", v("x"))}},
		})
		if !errors.Is(err, ErrExtendConflict) {
			t.Errorf("%s: err = %v, want ErrExtendConflict", tc.name, err)
		}
	}
	// Same predicate at a different arity is a different relation: allowed.
	if _, err := gp.Extend([]logic.Rule{
		{Head: []term.Atom{atom("p", v("x"), v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
	}); err != nil {
		t.Errorf("fresh arity rejected: %v", err)
	}
}

func TestExtendNoSnapshot(t *testing.T) {
	handBuilt := &Program{Atoms: []relational.Fact{{Pred: "a"}}, Rules: []Rule{{Head: []int{0}}}}
	if _, err := handBuilt.Extend(nil); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("err = %v, want ErrNoSnapshot", err)
	}
}

func TestExtendRejectsUnsafeRule(t *testing.T) {
	gp := mustGround(t, &logic.Program{Facts: []term.Atom{atom("q", ca("a"))}})
	if _, err := gp.Extend([]logic.Rule{
		{Head: []term.Atom{atom("ans", v("y"))}, Pos: []term.Atom{atom("q", v("x"))}},
	}); err == nil {
		t.Error("unsafe extension rule accepted")
	}
}

// TestExtendChained extends an extension: the second layer's rules read the
// first layer's derived relation, and the result still matches a monolithic
// grounding of everything.
func TestExtendChained(t *testing.T) {
	base := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a")), atom("q", ca("b"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
		},
	}
	layer1 := []logic.Rule{
		{Head: []term.Atom{atom("ans1", v("x"))}, Pos: []term.Atom{atom("p", v("x"))}},
	}
	layer2 := []logic.Rule{
		{Head: []term.Atom{atom("ans2", v("x"))}, Pos: []term.Atom{atom("ans1", v("x"))}},
	}
	gp := mustGround(t, base)
	e1, err := gp.Extend(layer1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e1.Extend(layer2)
	if err != nil {
		t.Fatal(err)
	}
	mono := mustGround(t, &logic.Program{
		Facts: base.Facts,
		Rules: append(append(append([]logic.Rule(nil), base.Rules...), layer1...), layer2...),
	})
	if e2.String() != mono.String() {
		t.Errorf("chained extension diverges:\n--- monolithic\n%s\n--- chained\n%s", mono, e2)
	}
	// A second extension may not rederive into the first's relations.
	if _, err := e1.Extend([]logic.Rule{
		{Head: []term.Atom{atom("ans1", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
	}); !errors.Is(err, ErrExtendConflict) {
		t.Errorf("re-deriving an extension relation: err = %v, want ErrExtendConflict", err)
	}
}

// TestExtendConcurrent extends one frozen base from many goroutines — the
// pattern of a multi-query cautious session — and checks each extension
// against its own monolithic grounding. Run under -race this also pins the
// snapshot's freeze discipline.
func TestExtendConcurrent(t *testing.T) {
	base := &logic.Program{
		Facts: []term.Atom{atom("q", ca("a")), atom("q", ca("b")), atom("q", ca("c"))},
		Rules: []logic.Rule{
			{Head: []term.Atom{atom("p", v("x"))}, Pos: []term.Atom{atom("q", v("x"))}},
			{
				Head:     []term.Atom{atom("s", v("x"), v("y"))},
				Pos:      []term.Atom{atom("p", v("x")), atom("p", v("y"))},
				Builtins: []term.Builtin{{Op: term.NEQ, L: v("x"), R: v("y")}},
			},
		},
	}
	gp := mustGround(t, base)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rules := []logic.Rule{{
				Head: []term.Atom{atom(fmt.Sprintf("ans%d", i), v("x"))},
				Pos:  []term.Atom{atom("s", v("x"), v("y"))},
			}}
			ep, err := gp.Extend(rules)
			if err != nil {
				errs[i] = err
				return
			}
			mono, err := Ground(&logic.Program{
				Facts: base.Facts,
				Rules: append(append([]logic.Rule(nil), base.Rules...), rules...),
			})
			if err != nil {
				errs[i] = err
				return
			}
			if ep.String() != mono.String() {
				errs[i] = fmt.Errorf("extension %d diverges from monolithic", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
}
