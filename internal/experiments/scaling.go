package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/session"
	"repro/internal/stable"
	"repro/internal/value"
)

// This file holds the quantitative experiments C1–C5 exercising the
// paper's complexity and decidability claims. Absolute timings are
// hardware-dependent; the asserted artifacts are the shapes (repair counts,
// model counts, agreement rates).

func init() {
	register(Experiment{
		ID:         "C1",
		Title:      "Decidability under RIC-cycles: repair enumeration terminates (Theorem 2)",
		PaperClaim: "with null-based repairs, CQA is decidable even for cyclic RICs; 2^n finite repairs here",
		Run:        runC1,
	})
	register(Experiment{
		ID:         "C2",
		Title:      "HCF programs vs disjunctive programs (Section 6, Corollary 1)",
		PaperClaim: "key-repair programs are HCF: shifting preserves the stable models (coNP vs Π2p machinery)",
		Run:        runC2,
	})
	register(Experiment{
		ID:         "C3",
		Title:      "Theorem 4 agreement rate: search engine vs stable-model engine",
		PaperClaim: "stable models of Π(D,IC) induce exactly Rep(D,IC) for RIC-acyclic IC",
		Run:        runC3,
	})
	register(Experiment{
		ID:         "C4",
		Title:      "Repair-count growth: classic [2] vs null-based semantics (Examples 14/15)",
		PaperClaim: "classic repairs grow linearly with the domain; null-based repairs stay at 2",
		Run:        runC4,
	})
	register(Experiment{
		ID:         "C5",
		Title:      "CQA end-to-end scaling: certain answers over 2^k repairs",
		PaperClaim: "both engines return the same certain answers; repairs double per violation",
		Run:        runC5,
	})
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

func runC1(w io.Writer) error {
	set := parser.MustConstraints(`
		p(X, Y) -> t(X).
		t(X) -> p(Y, X).
	`)
	var rows [][]string
	for _, n := range []int{1, 2, 3, 4, 5, 6} {
		d := relational.NewInstance()
		for i := 0; i < n; i++ {
			d.Insert(relational.F("t", value.Str(fmt.Sprintf("c%d", i))))
		}
		start := time.Now()
		res, err := repair.Repairs(d, set, repair.Options{})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(res.Repairs)),
			fmt.Sprint(res.StatesExplored), ms(elapsed),
		})
		if want := 1 << n; len(res.Repairs) != want {
			return fmt.Errorf("n=%d: repairs = %d, want 2^n = %d", n, len(res.Repairs), want)
		}
	}
	table(w, []string{"|T|", "repairs", "states", "time"}, rows)
	fmt.Fprintf(w, "every run terminates: the repair space is finite (Proposition 1)\n")
	return nil
}

// keyViolationInstance builds n key-violating pairs R(a_i,b), R(a_i,c).
func keyViolationInstance(n int) *relational.Instance {
	d := relational.NewInstance()
	for i := 0; i < n; i++ {
		k := value.Str(fmt.Sprintf("k%d", i))
		d.Insert(relational.F("r", k, value.Str("b")))
		d.Insert(relational.F("r", k, value.Str("c")))
	}
	return d
}

func runC2(w io.Writer) error {
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
	var rows [][]string
	for _, n := range []int{1, 2, 3, 4, 5} {
		d := keyViolationInstance(n)
		tr, err := repairprog.Build(d, set, repairprog.VariantPaper)
		if err != nil {
			return err
		}
		gp, err := ground.Ground(tr.Program)
		if err != nil {
			return err
		}
		if !stable.IsHCF(gp) {
			return fmt.Errorf("n=%d: key-repair program must be HCF (Corollary 1)", n)
		}
		startD := time.Now()
		disj, err := stable.Models(gp, stable.Options{})
		if err != nil {
			return err
		}
		tDisj := time.Since(startD)
		startS := time.Now()
		shifted, err := stable.Models(stable.Shift(gp), stable.Options{})
		if err != nil {
			return err
		}
		tShift := time.Since(startS)
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(disj)), fmt.Sprint(len(shifted)),
			ms(tDisj), ms(tShift),
		})
		if len(disj) != 1<<n || len(shifted) != 1<<n {
			return fmt.Errorf("n=%d: models disjunctive=%d shifted=%d, want %d", n, len(disj), len(shifted), 1<<n)
		}
	}
	table(w, []string{"violations", "models (disjunctive)", "models (shifted)", "time disj", "time shifted"}, rows)

	// Contrast: a genuinely non-HCF program, where shifting is unsound.
	symSet := parser.MustConstraints(`p(X, Y) -> p(Y, X).`)
	d := parser.MustInstance(`p(a, b).`)
	tr, err := repairprog.Build(d, symSet, repairprog.VariantPaper)
	if err != nil {
		return err
	}
	gp, err := ground.Ground(tr.Program)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "contrast P(x,y)->P(y,x): ground program HCF = %s (Theorem 5 condition fails, too)\n",
		yesNo(stable.IsHCF(gp)))
	if stable.IsHCF(gp) {
		return fmt.Errorf("symmetric-constraint program must not be HCF")
	}
	return nil
}

func runC3(w io.Writer) error {
	set := parser.MustConstraints(`
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
		r(X, Y), isnull(X) -> false.
	`)
	vals := []value.V{value.Str("a"), value.Str("b"), value.Null()}
	rng := rand.New(rand.NewSource(17))
	const trials = 12
	agree := 0
	var tSearch, tProgram time.Duration
	for trial := 0; trial < trials; trial++ {
		d := relational.NewInstance()
		for k := 0; k < 1+rng.Intn(3); k++ {
			d.Insert(relational.F("r", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		for k := 0; k < rng.Intn(3); k++ {
			d.Insert(relational.F("s", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		start := time.Now()
		res, err := repair.Repairs(d, set, repair.Options{})
		if err != nil {
			return err
		}
		tSearch += time.Since(start)
		start = time.Now()
		tr, err := repairprog.Build(d, set, repairprog.VariantCorrected)
		if err != nil {
			return err
		}
		insts, _, err := tr.StableRepairs(stable.Options{})
		if err != nil {
			return err
		}
		tProgram += time.Since(start)
		keys := map[string]bool{}
		for _, r := range res.Repairs {
			keys[r.Key()] = true
		}
		same := len(insts) == len(res.Repairs)
		if same {
			for _, i := range insts {
				if !keys[i.Key()] {
					same = false
					break
				}
			}
		}
		if same {
			agree++
		}
	}
	table(w, []string{"trials", "agreement", "total time (search)", "total time (program)"},
		[][]string{{fmt.Sprint(trials), fmt.Sprintf("%d/%d", agree, trials), ms(tSearch), ms(tProgram)}})
	if agree != trials {
		return fmt.Errorf("agreement %d/%d: Theorem 4 correspondence violated", agree, trials)
	}
	return nil
}

func runC4(w io.Writer) error {
	set := parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`)
	var rows [][]string
	for _, pad := range []int{0, 2, 4, 6, 8} {
		d := parser.MustInstance(`
			course(21, c15).
			course(34, c18).
			student(21, "Ann").
		`)
		for i := 0; i < pad; i++ {
			d.Insert(relational.F("student", value.Int(int64(100+i)), value.Str(fmt.Sprintf("n%d", i))))
		}
		adom := len(d.ActiveDomain())
		classic, err := repair.Repairs(d, set, repair.Options{Mode: repair.Classic})
		if err != nil {
			return err
		}
		nullBased, err := repair.Repairs(d, set, repair.Options{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(adom), fmt.Sprint(len(classic.Repairs)), fmt.Sprint(len(nullBased.Repairs)),
		})
		if len(classic.Repairs) != 1+adom {
			return fmt.Errorf("adom=%d: classic repairs = %d, want %d", adom, len(classic.Repairs), 1+adom)
		}
		if len(nullBased.Repairs) != 2 {
			return fmt.Errorf("adom=%d: null-based repairs = %d, want 2", adom, len(nullBased.Repairs))
		}
	}
	table(w, []string{"|adom|", "classic repairs", "null-based repairs"}, rows)
	fmt.Fprintf(w, "classic repairs grow with the domain; null-based repairs are domain-independent\n")
	return nil
}

func runC5(w io.Writer) error {
	q := parser.MustQuery(`q(Id) :- student(Id, Name).`)
	var rows [][]string
	for _, k := range []int{1, 2, 3, 4, 5} {
		d := relational.NewInstance()
		for i := 0; i < 5; i++ {
			d.Insert(relational.F("student", value.Int(int64(i)), value.Str(fmt.Sprintf("s%d", i))))
		}
		for i := 0; i < k; i++ {
			d.Insert(relational.F("course", value.Int(int64(100+i)), value.Str(fmt.Sprintf("c%d", i))))
		}
		set := parser.MustConstraints(`course(Id, Code) -> student(Id, Name).`)

		searchOpts := session.NewOptions()
		start := time.Now()
		ansSearch, err := session.New(d, set, searchOpts).Answer(q)
		if err != nil {
			return err
		}
		tSearch := time.Since(start)

		progOpts := session.NewOptions()
		progOpts.Engine = session.EngineProgram
		start = time.Now()
		ansProg, err := session.New(d, set, progOpts).Answer(q)
		if err != nil {
			return err
		}
		tProg := time.Since(start)

		rows = append(rows, []string{
			fmt.Sprint(k), fmt.Sprint(ansSearch.NumRepairs), fmt.Sprint(len(ansSearch.Tuples)),
			ms(tSearch), ms(tProg),
		})
		if ansSearch.NumRepairs != 1<<k {
			return fmt.Errorf("k=%d: repairs = %d, want 2^k = %d", k, ansSearch.NumRepairs, 1<<k)
		}
		if len(ansSearch.Tuples) != 5 || len(ansProg.Tuples) != 5 {
			return fmt.Errorf("k=%d: certain answers = %d/%d, want 5 (inserted null-students are uncertain)",
				k, len(ansSearch.Tuples), len(ansProg.Tuples))
		}
	}
	table(w, []string{"violations k", "repairs", "certain answers", "time (search)", "time (program)"}, rows)
	return nil
}
