package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/direct"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repair"
)

// smallOps is the measured op count of the small self-check workloads:
// three whole periods of every pattern.
func smallOps(sp spec) int { return 3 * len(sp.pattern) }

// instance rebuilds the generated instance from the create request.
func (w *workload) instance(t *testing.T) *relational.Instance {
	t.Helper()
	if w.create.Instance != nil {
		return w.create.Instance.ToInstance()
	}
	d, err := parser.Instance(w.create.InstanceText)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// repairCount counts the repairs of the generated instance with the
// engine that suits its constraint class.
func (w *workload) repairCount(t *testing.T) int {
	t.Helper()
	d := w.instance(t)
	if w.create.Constraints != nil {
		set, err := w.create.Constraints.ToSet()
		if err != nil {
			t.Fatal(err)
		}
		e, err := direct.New(d, set)
		if err != nil {
			t.Fatal(err)
		}
		return e.NumRepairs()
	}
	set, err := parser.Constraints(w.create.ConstraintsText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Repairs)
}

type shape struct {
	classes            []class
	perClass           [numClasses]int
	facts, violations  int
	repairs, standings int
}

func shapeOf(t *testing.T, w *workload) shape {
	t.Helper()
	s := shape{facts: w.facts, violations: w.violations, repairs: w.repairCount(t), standings: len(w.standing)}
	for _, o := range append(append([]op(nil), w.warmup...), w.ops...) {
		s.classes = append(s.classes, o.class)
		s.perClass[o.class]++
	}
	return s
}

// TestShapeIsSeedInvariant checks that the seed picks keys and constants
// only: two seeds give the same class sequence, per-class op counts,
// |D|, violation count and repair count.
func TestShapeIsSeedInvariant(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a := shapeOf(t, sp.build(sp.small, 1, smallOps(sp)))
			b := shapeOf(t, sp.build(sp.small, 2, smallOps(sp)))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed 1 shape %+v differs from seed 2 shape %+v", a, b)
			}
			w := sp.build(sp.small, 1, smallOps(sp))
			if a.repairs != w.repairs {
				t.Fatalf("%d repairs, the workload predicts %d", a.repairs, w.repairs)
			}
			for c := class(0); c < numClasses; c++ {
				if a.perClass[c] == 0 {
					t.Errorf("no %s ops", c)
				}
			}
		})
	}
}

// TestFullShapeIsSeedInvariant checks the measured sizes too, comparing
// the predicted counts: recounting repairs at full size would enumerate
// 2^100 of them on fd-live.
func TestFullShapeIsSeedInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation")
	}
	for _, sp := range specs {
		a := sp.build(sp.full, 1, sp.measuredOps(1))
		b := sp.build(sp.full, 2, sp.measuredOps(1))
		if a.facts != b.facts || a.violations != b.violations || a.repairs != b.repairs || len(a.ops) != len(b.ops) {
			t.Errorf("%s: seed 1 (%d facts, %d violations, %d repairs, %d ops) differs from seed 2 (%d, %d, %d, %d)",
				sp.name, a.facts, a.violations, a.repairs, len(a.ops), b.facts, b.violations, b.repairs, len(b.ops))
		}
	}
}

// countMetrics are the per-layer counts that must repeat exactly across
// two traced replays of one seed.
var countMetrics = []string{"repair.states", "repair.repairs", "ground.atoms", "ground.rules", "stable.models", "relational.facts", "nullsem.violations", "direct.delta_facts"}

func layerValue(t *testing.T, x *layerInputs, name string) float64 {
	t.Helper()
	for _, l := range layers {
		if l.name == name {
			return l.get(x)
		}
	}
	t.Fatalf("no per-layer metric %q", name)
	return 0
}

// TestTracedReplayRepeats replays each small workload twice in-process
// with probes on: every response must be correct, and the per-layer counts
// must repeat exactly.
func TestTracedReplayRepeats(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				w := sp.build(sp.small, 7, smallOps(sp))
				res, err := replay(w, 2, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, failed := res.tally.totals(); failed > 0 || len(res.pr.errs) > 0 {
					t.Fatalf("failures: %v %v", res.tally.errs, res.pr.errs)
				}
				x := &layerInputs{traced: res}
				runs[i] = map[string]float64{}
				for _, name := range countMetrics {
					runs[i][name] = layerValue(t, x, name)
				}
				if got := runs[i]["relational.facts"]; got != float64(w.facts) {
					t.Errorf("relational.facts %v, want %d", got, w.facts)
				}
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatalf("counts differ across two runs of one seed:\n%v\n%v", runs[0], runs[1])
			}
			t.Logf("%v", runs[0])
		})
	}
}

// TestSpansAccountForOps checks that the wire, parser and session spans
// cover nearly all of each traced op.
func TestSpansAccountForOps(t *testing.T) {
	sp, _ := lookupSpec("mixed-stream")
	// Twenty periods, so one collector pause inside an op's glue cannot
	// dominate a class total.
	w := sp.build(sp.small, 3, 20*len(sp.pattern))
	res, err := replay(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	got := (&layerInputs{traced: res}).opExplained()
	if got < 80 {
		t.Fatalf("spans explain only %.1f%% of an op", got)
	}
	t.Logf("spans explain %.1f%% of an op", got)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	for _, c := range [][2]float64{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}
