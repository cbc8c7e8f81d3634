package ground_test

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/value"
)

// stableRepairDB is n key conflicts over bulk unrelated rows under one
// FD: a repair program with 2^n stable models.
func stableRepairDB(n, bulk int) (*relational.Instance, *constraint.Set) {
	d := relational.NewInstance()
	for i := 0; i < n; i++ {
		k := value.Str(fmt.Sprintf("k%d", i))
		d.Insert(relational.F("r", k, value.Str("b")))
		d.Insert(relational.F("r", k, value.Str("c")))
	}
	for i := 0; i < bulk; i++ {
		d.Insert(relational.F("r", value.Str(fmt.Sprintf("u%d", i)), value.Str(fmt.Sprintf("v%d", i))))
	}
	return d, parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
}

// BenchmarkGround scales the repair-program grounding over violations and
// bulk, comparing the semi-naive fixpoint (default) against the naive
// round-robin ablation. The allocs/op
// column doubles as the hot-path hygiene gate: grounding interns atoms by
// hash, with no string keys on the fixpoint or instantiation path.
func BenchmarkGround(b *testing.B) {
	for _, cfg := range []struct{ n, bulk int }{{3, 16}, {3, 64}, {5, 64}} {
		d, set := stableRepairDB(cfg.n, cfg.bulk)
		tr, err := repairprog.BuildWith(d, set, repairprog.BuildOptions{
			Variant:            repairprog.VariantCorrected,
			PruneUnconstrained: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opts ground.Options
		}{
			{"seminaive", ground.Options{}},
			{"naive", ground.WithNaive(ground.Options{})},
		} {
			b.Run(fmt.Sprintf("violations=%d/bulk=%d/%s", cfg.n, cfg.bulk, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ground.GroundWith(tr.Program, mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
