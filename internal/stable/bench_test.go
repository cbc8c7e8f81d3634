package stable_test

import (
	"fmt"
	"testing"

	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/stable"
	"repro/internal/value"
)

// BenchmarkSolverReuse is the solver mirror of IncrementalViolationProbe:
// the same stable-model enumeration once on a single persistent solver per
// component (learned clauses, saved phases and the assumption-prefix trail
// carried across candidate, minimization and stability solves) and once with
// the scratch-solve ablation rebuilding the solver from the clause log on
// every solve call. The repair program is that of 4 key conflicts over 16
// unrelated rows: 2^4 models.
func BenchmarkSolverReuse(b *testing.B) {
	d := relational.NewInstance()
	for i := 0; i < 4; i++ {
		k := value.Str(fmt.Sprintf("k%d", i))
		d.Insert(relational.F("r", k, value.Str("b")))
		d.Insert(relational.F("r", k, value.Str("c")))
	}
	for i := 0; i < 16; i++ {
		d.Insert(relational.F("r", value.Str(fmt.Sprintf("u%d", i)), value.Str(fmt.Sprintf("v%d", i))))
	}
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
	tr, err := repairprog.BuildWith(d, set, repairprog.BuildOptions{
		Variant:            repairprog.VariantCorrected,
		PruneUnconstrained: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	gp, err := ground.Ground(tr.Program)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts stable.Options
	}{{"persistent", stable.Options{}}, {"scratch", stable.WithScratch(stable.Options{})}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := stable.Enumerate(gp, mode.opts, func(stable.Model) bool {
					n++
					return true
				}); err != nil || n != 1<<4 {
					b.Fatalf("models=%d err=%v", n, err)
				}
			}
		})
	}
}
