package main

import (
	"fmt"
	"os"
	"sort"
)

// runSteady runs the workload k times against fresh cqad processes,
// alternating seed and seed+1, and prints the median, quartiles, min/max
// and quartile spread of every end-to-end metric: the figures the bounds
// in BENCHMARK.json are set from.
func runSteady(bin string, sp spec, seed int64, measured, k int) (int, error) {
	runs := map[string][]float64{}
	for i := 0; i < k; i++ {
		s := seed + int64(i%2)
		w := sp.build(sp.full, s, measured)
		r, err := runE2E(bin, w)
		if err != nil {
			if r != nil {
				printTally(os.Stdout, &r.tally)
			}
			return 1, fmt.Errorf("run %d (seed %d): %v", i, s, err)
		}
		if _, failed := r.tally.totals(); failed > 0 {
			printTally(os.Stdout, &r.tally)
			return 1, fmt.Errorf("run %d (seed %d): %d requests failed", i, s, failed)
		}
		line := fmt.Sprintf("run %2d seed %d:", i, s)
		for _, em := range e2eMetrics {
			v := em.get(r)
			runs[em.name] = append(runs[em.name], v)
			line += fmt.Sprintf(" %s=%.4f", em.name, v)
		}
		fmt.Println(line)
	}
	fmt.Printf("%s, %d runs, %d measured ops each\n", sp.name, k, measured)
	fmt.Printf("%-24s %10s %10s %10s %10s %10s %8s\n", "metric", "min", "q1", "median", "q3", "max", "iqr/med")
	for _, em := range e2eMetrics {
		xs := runs[em.name]
		q1, med, q3 := quartiles(xs)
		fmt.Printf("%-24s %10.4f %10.4f %10.4f %10.4f %10.4f %8.4f\n",
			em.name, quantile(xs, 0), q1, med, q3, quantile(xs, 1), (q3-q1)/med)
	}
	return 0, nil
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is how the acceptance spread is computed.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	at := func(p float64) float64 {
		m := p * (n + 1)
		j := int(m)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
