package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ageSlowdown is the p50 of the last tenth of xs (in op order) over the p50
// of the first tenth: above 1 when the same op gets dearer as the session
// ages.
func ageSlowdown(xs []float64) float64 {
	n := len(xs) / 10
	if n == 0 {
		return 0
	}
	return median(xs[len(xs)-n:]) / median(xs[:n])
}

// tenths returns the p50 of each tenth of xs, in op order.
func tenths(xs []float64) []float64 {
	n := len(xs) / 10
	if n == 0 {
		return nil
	}
	out := make([]float64, 10)
	for i := range out {
		out[i] = median(xs[i*n : (i+1)*n])
	}
	return out
}

// tail reports the guide's tail rule for one class: p99 with the number of
// samples beyond it, and the highest of p99/p95/p90/p75/p50 that still has
// at least ten samples beyond it.
func tail(xs []float64) string {
	p99 := quantile(xs, 0.99)
	beyond := 0
	for _, x := range xs {
		if x > p99 {
			beyond++
		}
	}
	best := "none"
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75, 0.50} {
		if float64(len(xs))*(1-q) >= 10 {
			best = fmt.Sprintf("p%.0f=%.3f", q*100, quantile(xs, q))
			break
		}
	}
	return fmt.Sprintf("p99=%.3f (%d beyond), tail-rule %s", p99, beyond, best)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printTally prints failed/attempted per request kind.
func printTally(out io.Writer, t *tally) {
	fmt.Fprintf(out, "%-18s %9s %6s\n", "request", "attempted", "failed")
	for k := kind(0); k < numKinds; k++ {
		fmt.Fprintf(out, "%-18s %9d %6d\n", kindNames[k], t.attempted[k], t.failed[k])
	}
	for _, e := range t.errs {
		fmt.Fprintf(out, "FAIL %s\n", e)
	}
}
