// Command benchdiff converts `go test -bench` output into the BENCH_*.json
// format the CI benchmark-regression gate tracks, and compares two such
// files, failing on regressions. It is also what CHANGES.md perf notes are
// generated from.
//
// Usage:
//
//	benchdiff -parse bench.txt -o BENCH_4.json
//	    Parse benchmark output (possibly -count N repetitions; the median
//	    per benchmark is kept) into JSON: name -> {ns_per_op, allocs_per_op,
//	    bytes_per_op}, the last only when the output has a B/op column.
//	    Written as a new baseline, it gates B/op on every entry; keep
//	    bytes_per_op only on the entries whose B/op spread was checked.
//
//	benchdiff -baseline bench/baseline.json -current BENCH_4.json [-threshold 25] [-min-ns 1000000] [-summary path]
//	    Print a delta table and exit 1 when any tracked benchmark regressed
//	    by more than threshold percent. Benchmarks whose baseline ns/op is
//	    below min-ns (default 1ms) are compared on allocs/op only: with
//	    -benchtime 1x a sub-millisecond timing is scheduler noise, while
//	    allocation counts are deterministic, so the micro benchmarks are
//	    gated on allocations and the macro workloads on wall time. An
//	    entry whose baseline records bytes_per_op is also gated on B/op by
//	    the same threshold: a copy that grows without allocating more
//	    objects shows there and nowhere else. A
//	    benchmark present in the baseline but missing from the current run
//	    also fails the gate (delete it from the baseline deliberately, not
//	    silently).
//
//	    -summary appends the same comparison as a GitHub-flavored markdown
//	    table to the given file (defaulting to $GITHUB_STEP_SUMMARY, so CI
//	    runs surface the per-benchmark old/new/delta table on the workflow
//	    summary page); the table is written whether or not the gate fails.
//
// GOMAXPROCS suffixes ("-4") are stripped from benchmark names so files
// compare across machines with different core counts.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one tracked benchmark measurement. BytesPerOp is nil when the
// output had no B/op column; the gate checks it only for baseline entries
// that record it.
type Result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp float64  `json:"allocs_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	parse := fs.String("parse", "", "benchmark output file to convert to JSON")
	out := fs.String("o", "", "output JSON path for -parse (default stdout)")
	baseline := fs.String("baseline", "", "baseline BENCH JSON for comparison")
	current := fs.String("current", "", "current BENCH JSON for comparison")
	threshold := fs.Float64("threshold", 25, "regression threshold in percent")
	minNs := fs.Float64("min-ns", 1_000_000, "below this baseline ns/op, compare allocs/op only")
	summary := fs.String("summary", "", "append a markdown comparison table to this file (default $GITHUB_STEP_SUMMARY)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *parse != "":
		f, err := parseBenchOutput(*parse)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *out == "" {
			_, err = stdout.Write(data)
			return err
		}
		return os.WriteFile(*out, data, 0o644)
	case *baseline != "" && *current != "":
		base, err := readFile(*baseline)
		if err != nil {
			return err
		}
		cur, err := readFile(*current)
		if err != nil {
			return err
		}
		gateErr := compare(stdout, base, cur, *threshold, *minNs)
		path := *summary
		if path == "" {
			path = os.Getenv("GITHUB_STEP_SUMMARY")
		}
		if path != "" {
			// The summary is written even when the gate fails — a failing
			// run is exactly when the table is wanted on the summary page.
			if err := appendSummary(path, base, cur, *threshold, *minNs); err != nil {
				return err
			}
		}
		return gateErr
	default:
		return fmt.Errorf("need either -parse, or -baseline and -current (see -h)")
	}
}

func readFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// benchLine matches one benchmark result line of `go test -bench` output.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// allocsField and bytesField match the -benchmem columns.
var (
	allocsField = regexp.MustCompile(`([\d.]+) allocs/op`)
	bytesField  = regexp.MustCompile(`([\d.]+) B/op`)
)

// parseBenchOutput reads `go test -bench` text, keeping the per-benchmark
// median over repeated runs (-count N).
func parseBenchOutput(path string) (File, error) {
	in, err := os.Open(path)
	if err != nil {
		return File{}, err
	}
	defer in.Close()

	ns := map[string][]float64{}
	allocs := map[string][]float64{}
	bytes := map[string][]float64{}
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimRight(sc.Text(), "\r"))
		if m == nil {
			continue
		}
		name, nsStr, rest := m[1], m[2], m[3]
		v, err := strconv.ParseFloat(nsStr, 64)
		if err != nil {
			return File{}, fmt.Errorf("%s: bad ns/op in %q", path, sc.Text())
		}
		if _, seen := ns[name]; !seen {
			order = append(order, name)
		}
		ns[name] = append(ns[name], v)
		if am := allocsField.FindStringSubmatch(rest); am != nil {
			a, err := strconv.ParseFloat(am[1], 64)
			if err != nil {
				return File{}, fmt.Errorf("%s: bad allocs/op in %q", path, sc.Text())
			}
			allocs[name] = append(allocs[name], a)
		}
		if bm := bytesField.FindStringSubmatch(rest); bm != nil {
			b, err := strconv.ParseFloat(bm[1], 64)
			if err != nil {
				return File{}, fmt.Errorf("%s: bad B/op in %q", path, sc.Text())
			}
			bytes[name] = append(bytes[name], b)
		}
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	if len(ns) == 0 {
		return File{}, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	f := File{Benchmarks: map[string]Result{}}
	for _, name := range order {
		r := Result{
			NsPerOp:     median(ns[name]),
			AllocsPerOp: median(allocs[name]),
		}
		if bs := bytes[name]; len(bs) > 0 {
			m := median(bs)
			r.BytesPerOp = &m
		}
		f.Benchmarks[name] = r
	}
	return f, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// compare prints the delta table and returns an error when the gate fails.
func compare(w io.Writer, base, cur File, threshold, minNs float64) error {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Fprintf(w, "%-60s %14s %14s %8s %8s\n", "benchmark", "base ns/op", "cur ns/op", "Δns%", "Δallocs%")
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: tracked benchmark missing from current run", name))
			fmt.Fprintf(w, "%-60s %14.0f %14s %8s %8s\n", name, b.NsPerOp, "MISSING", "-", "-")
			continue
		}
		dNs := pctDelta(b.NsPerOp, c.NsPerOp)
		dAllocs := pctDelta(b.AllocsPerOp, c.AllocsPerOp)
		flag := ""
		if b.NsPerOp >= minNs && dNs > threshold {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.1f%% (%.0f -> %.0f, threshold %.0f%%)",
				name, dNs, b.NsPerOp, c.NsPerOp, threshold))
			flag = "  << REGRESSION"
		}
		// pctDelta is 0 for a zero baseline, so a zero-alloc benchmark
		// growing any allocations must be failed explicitly or it would
		// slip through the gate entirely.
		if dAllocs > threshold || (b.AllocsPerOp == 0 && c.AllocsPerOp > 0) {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %.1f%% (%.0f -> %.0f, threshold %.0f%%)",
				name, dAllocs, b.AllocsPerOp, c.AllocsPerOp, threshold))
			flag = "  << REGRESSION"
		}
		if msg := bytesRegression(name, b, c, threshold); msg != "" {
			failures = append(failures, msg)
			flag = "  << REGRESSION"
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%% %+7.1f%%%s\n", name, b.NsPerOp, c.NsPerOp, dNs, dAllocs, flag)
	}
	var untracked []string
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			untracked = append(untracked, name)
		}
	}
	sort.Strings(untracked)
	for _, name := range untracked {
		fmt.Fprintf(w, "%-60s %14s %14.0f %8s %8s\n", name, "untracked", cur.Benchmarks[name].NsPerOp, "-", "-")
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "gate ok: %d tracked benchmarks within %.0f%%\n", len(names), threshold)
	return nil
}

// bytesRegression returns why entry name fails the B/op gate, or "" when
// it passes or its baseline records no B/op.
func bytesRegression(name string, b, c Result, threshold float64) string {
	switch {
	case b.BytesPerOp == nil:
		return ""
	case c.BytesPerOp == nil:
		return fmt.Sprintf("%s: B/op missing from current run (run with -benchmem)", name)
	}
	if d := pctDelta(*b.BytesPerOp, *c.BytesPerOp); d > threshold {
		return fmt.Sprintf("%s: B/op regressed %.1f%% (%.0f -> %.0f, threshold %.0f%%)",
			name, d, *b.BytesPerOp, *c.BytesPerOp, threshold)
	}
	return ""
}

// pctDelta is the percentage change from base to cur; 0 when base is 0.
func pctDelta(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// appendSummary appends the markdown table to path (created if absent).
func appendSummary(path string, base, cur File, threshold, minNs float64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return renderMarkdown(f, base, cur, threshold, minNs)
}

// renderMarkdown writes the baseline/current comparison as one GitHub-
// flavored markdown table: a row per tracked benchmark with old/new values
// and percentage deltas, regressions flagged (the same rules as the gate:
// ns/op only at or above minNs, allocs always, zero-alloc baselines must
// stay at zero, B/op where the baseline records it), then the untracked
// current-only benchmarks.
func renderMarkdown(w io.Writer, base, cur File, threshold, minNs float64) error {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf strings.Builder
	regressions := 0
	buf.WriteString("### Benchmark gate\n\n")
	buf.WriteString("| benchmark | base ns/op | cur ns/op | Δns | base allocs | cur allocs | Δallocs | |\n")
	buf.WriteString("|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			regressions++
			fmt.Fprintf(&buf, "| `%s` | %.0f | missing | — | %.0f | missing | — | ❌ |\n",
				name, b.NsPerOp, b.AllocsPerOp)
			continue
		}
		dNs := pctDelta(b.NsPerOp, c.NsPerOp)
		dAllocs := pctDelta(b.AllocsPerOp, c.AllocsPerOp)
		bad := (b.NsPerOp >= minNs && dNs > threshold) ||
			dAllocs > threshold || (b.AllocsPerOp == 0 && c.AllocsPerOp > 0) ||
			bytesRegression(name, b, c, threshold) != ""
		flag := ""
		if bad {
			regressions++
			flag = "❌"
		}
		fmt.Fprintf(&buf, "| `%s` | %.0f | %.0f | %+.1f%% | %.0f | %.0f | %+.1f%% | %s |\n",
			name, b.NsPerOp, c.NsPerOp, dNs, b.AllocsPerOp, c.AllocsPerOp, dAllocs, flag)
	}
	var untracked []string
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			untracked = append(untracked, name)
		}
	}
	sort.Strings(untracked)
	for _, name := range untracked {
		c := cur.Benchmarks[name]
		fmt.Fprintf(&buf, "| `%s` | untracked | %.0f | — | untracked | %.0f | — | |\n",
			name, c.NsPerOp, c.AllocsPerOp)
	}
	if regressions > 0 {
		fmt.Fprintf(&buf, "\n**%d regression(s) over the %.0f%% threshold.**\n\n", regressions, threshold)
	} else {
		fmt.Fprintf(&buf, "\ngate ok: %d tracked benchmarks within %.0f%%\n\n", len(names), threshold)
	}
	_, err := io.WriteString(w, buf.String())
	return err
}
