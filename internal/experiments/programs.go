package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/stable"
)

// This file reproduces the repair-program artifacts: Examples 21–23 of
// Section 5 and the Definition 9 wrinkle documented in DESIGN.md.

func init() {
	register(Experiment{
		ID:         "E21",
		Title:      "Example 21: the repair program Π(D,IC) for Example 19",
		PaperClaim: "rules 1–7 with the FD, RIC (with aux) and NNC translations",
		Run:        runE21,
	})
	register(Experiment{
		ID:         "E22",
		Title:      "Example 22: the Q′/Q″ combinations for a disjunctive UIC",
		PaperClaim: "four rules, one per split of {R(x), S(y)}",
		Run:        runE22,
	})
	register(Experiment{
		ID:         "E23",
		Title:      "Example 23: stable models of Π(D,IC) are the repairs (Theorem 4)",
		PaperClaim: "four stable models M1–M4 inducing exactly the repairs D1–D4",
		Run:        runE23,
	})
	register(Experiment{
		ID:    "E23b",
		Title: "Definition 9 wrinkle: original null witness in an existential position",
		PaperClaim: "Definition 9 verbatim yields a spurious stable model on D={P(a),Q(a,null)}; " +
			"the corrected aux rule restores the Theorem 4 correspondence",
		Run: runE23b,
	})
}

func example19Repair() (*relational.Instance, string) {
	return parser.MustInstance(`r(a, b). r(a, c). s(e, f). s(null, a).`), `
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
		r(X, Y), isnull(X) -> false.
	`
}

func runE21(w io.Writer) error {
	d, setSrc := example19Repair()
	set := parser.MustConstraints(setSrc)
	tr, err := repairprog.Build(d, set, repairprog.VariantPaper)
	if err != nil {
		return err
	}
	out := tr.Render()
	fmt.Fprint(w, out)
	for _, want := range []string{
		"r(a,b).",
		"s(null,a).",
		"r_a(X,Y,fa) v r_a(X,Z,fa) :- r_a(X,Y,ts), r_a(X,Z,ts), X != null, Y != null, Z != null, Y != Z.",
		"s_a(U,V,fa) v r_a(V,null,ta) :- s_a(U,V,ts), not aux_ic2(V), V != null.",
		"aux_ic2(V) :- r_a(V,W,ts), not r_a(V,W,fa), V != null, W != null.",
		"r_a(x1,x2,fa) :- r_a(x1,x2,ts), x1 = null.",
		"r_a(x1,x2,tss) :- r_a(x1,x2,ts), not r_a(x1,x2,fa).",
		":- r_a(x1,x2,ta), r_a(x1,x2,fa).",
	} {
		if !strings.Contains(out, want) {
			return fmt.Errorf("program missing %q", want)
		}
	}
	return nil
}

func runE22(w io.Writer) error {
	d := parser.MustInstance(`p(a, b). p(c, null).`)
	set := parser.MustConstraints(`
		p(X, Y) -> r(X) | s(Y).
		p(X, Y), isnull(Y) -> false.
	`)
	tr, err := repairprog.Build(d, set, repairprog.VariantPaper)
	if err != nil {
		return err
	}
	fmt.Fprint(w, tr.Render())
	splits := 0
	for _, r := range tr.Program.Rules {
		if len(r.Head) == 3 {
			splits++
		}
	}
	if splits != 4 {
		return fmt.Errorf("Q'/Q'' rules = %d, want 4", splits)
	}
	fmt.Fprintf(w, "%% %d Q'/Q'' combination rules generated\n", splits)
	return nil
}

func runE23(w io.Writer) error {
	d, setSrc := example19Repair()
	set := parser.MustConstraints(setSrc)
	tr, err := repairprog.Build(d, set, repairprog.VariantPaper)
	if err != nil {
		return err
	}
	gp, err := ground.Ground(tr.Program)
	if err != nil {
		return err
	}
	models, err := stable.Models(gp, stable.Options{})
	if err != nil {
		return err
	}
	slices.SortFunc(models, func(a, b stable.Model) int { return slices.Compare(a, b) })
	fmt.Fprintf(w, "ground atoms: %d, ground rules: %d\n", gp.NumAtoms(), len(gp.Rules))
	fmt.Fprintf(w, "stable models: %d\n", len(models))
	if len(models) != 4 {
		return fmt.Errorf("stable models = %d, paper says 4", len(models))
	}
	var rows [][]string
	for i, m := range models {
		inst := tr.Interpret(gp, m)
		rows = append(rows, []string{fmt.Sprintf("M%d", i+1), inst.String()})
	}
	table(w, []string{"model", "induced instance D_M"}, rows)

	res, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		return err
	}
	keys := map[string]bool{}
	for _, r := range res.Repairs {
		keys[r.Key()] = true
	}
	for _, m := range models {
		inst := tr.Interpret(gp, m)
		if !keys[inst.Key()] {
			return fmt.Errorf("stable model induces %v, which is not a repair", inst)
		}
	}
	if len(res.Repairs) != 4 {
		return fmt.Errorf("search repairs = %d, want 4", len(res.Repairs))
	}
	fmt.Fprintf(w, "stable models and search repairs coincide (Theorem 4)\n")
	return nil
}

func runE23b(w io.Writer) error {
	d := parser.MustInstance(`p(a). q(a, null).`)
	set := parser.MustConstraints(`p(X) -> q(X, Y).`)

	res, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		return err
	}
	if len(res.Repairs) != 1 {
		return fmt.Errorf("D is consistent; repairs = %d, want 1", len(res.Repairs))
	}
	fmt.Fprintf(w, "D is consistent under Definition 4 (null witness allowed): Rep(D,IC) = {D}\n")

	for _, variant := range []repairprog.Variant{repairprog.VariantPaper, repairprog.VariantCorrected} {
		tr, err := repairprog.Build(d, set, variant)
		if err != nil {
			return err
		}
		insts, models, err := tr.StableRepairs(stable.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "variant %-9s: %d stable models, %d induced instances: ", variant, len(models), len(insts))
		for i, inst := range insts {
			if i > 0 {
				fmt.Fprint(w, " ; ")
			}
			fmt.Fprint(w, inst)
		}
		fmt.Fprintln(w)
		switch variant {
		case repairprog.VariantPaper:
			if len(insts) != 2 {
				return fmt.Errorf("paper variant: expected the documented spurious instance")
			}
		case repairprog.VariantCorrected:
			if len(insts) != 1 || insts[0].Key() != d.Key() {
				return fmt.Errorf("corrected variant must induce exactly {D}")
			}
		}
	}
	return nil
}
