package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStableRepairs/violations=3-4         	    1958	    611613 ns/op	  298242 B/op	    6026 allocs/op
BenchmarkStableRepairs/violations=3-4         	    1900	    650000 ns/op	  298242 B/op	    6026 allocs/op
BenchmarkStableRepairs/violations=3-4         	    2000	    600000 ns/op	  298242 B/op	    6026 allocs/op
BenchmarkDepGraph-4                           	  472441	      2568 ns/op	    1344 B/op	      30 allocs/op
PASS
ok  	repro	11.732s
`

func writeSample(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseMedianAndSuffixStripping(t *testing.T) {
	in := writeSample(t, "bench.txt", sampleBench)
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var buf bytes.Buffer
	if err := run([]string{"-parse", in, "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %v, want 2 entries", f.Benchmarks)
	}
	r, ok := f.Benchmarks["BenchmarkStableRepairs/violations=3"] // -4 suffix stripped
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", f.Benchmarks)
	}
	if r.NsPerOp != 611613 { // median of {600000, 611613, 650000}
		t.Errorf("median ns/op = %v, want 611613", r.NsPerOp)
	}
	if r.AllocsPerOp != 6026 {
		t.Errorf("allocs/op = %v, want 6026", r.AllocsPerOp)
	}
}

func benchJSON(t *testing.T, name string, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return writeSample(t, name, string(data))
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1_000_000, AllocsPerOp: 100},
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1_200_000, AllocsPerOp: 110}, // +20%, +10%
		"BenchmarkB": {NsPerOp: 5, AllocsPerOp: 1},           // untracked: ignored
	}})
	var buf bytes.Buffer
	if err := run([]string{"-baseline", base, "-current", cur}, &buf); err != nil {
		t.Fatalf("gate failed within threshold: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate ok") {
		t.Errorf("missing gate summary:\n%s", buf.String())
	}
}

// TestGateFailsOnSyntheticSlowdown is the acceptance check for the CI gate:
// a synthetic 30% ns/op slowdown on a tracked benchmark must fail.
func TestGateFailsOnSyntheticSlowdown(t *testing.T) {
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1_000_000, AllocsPerOp: 100},
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1_300_000, AllocsPerOp: 100}, // +30% > 25%
	}})
	var buf bytes.Buffer
	err := run([]string{"-baseline", base, "-current", cur}, &buf)
	if err == nil {
		t.Fatalf("gate passed a 30%% slowdown:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "ns/op regressed 30.0%") {
		t.Errorf("error does not name the regression: %v", err)
	}
	if !strings.Contains(buf.String(), "<< REGRESSION") {
		t.Errorf("table does not flag the regression:\n%s", buf.String())
	}
}

func TestGateFailsOnAllocRegressionEvenBelowNoiseFloor(t *testing.T) {
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkTiny": {NsPerOp: 2_000, AllocsPerOp: 100}, // below -min-ns
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{
		"BenchmarkTiny": {NsPerOp: 9_000, AllocsPerOp: 140}, // noisy ns ignored, +40% allocs caught
	}})
	var buf bytes.Buffer
	err := run([]string{"-baseline", base, "-current", cur}, &buf)
	if err == nil || !strings.Contains(err.Error(), "allocs/op regressed 40.0%") {
		t.Fatalf("alloc regression not caught: err=%v\n%s", err, buf.String())
	}

	// The same ns blowup alone is below the noise floor: no failure.
	cur2 := benchJSON(t, "cur2.json", File{Benchmarks: map[string]Result{
		"BenchmarkTiny": {NsPerOp: 9_000, AllocsPerOp: 100},
	}})
	buf.Reset()
	if err := run([]string{"-baseline", base, "-current", cur2}, &buf); err != nil {
		t.Fatalf("sub-noise-floor timing failed the gate: %v", err)
	}
}

func TestGateFailsOnAllocsGrowingFromZeroBaseline(t *testing.T) {
	// pctDelta(0, x) is 0, so the zero-alloc case needs its own gate rule:
	// a benchmark with a zero-alloc baseline growing any allocations must
	// fail, not be silently exempt.
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkZeroAlloc": {NsPerOp: 2_000, AllocsPerOp: 0},
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{
		"BenchmarkZeroAlloc": {NsPerOp: 2_000, AllocsPerOp: 500},
	}})
	var buf bytes.Buffer
	err := run([]string{"-baseline", base, "-current", cur}, &buf)
	if err == nil || !strings.Contains(err.Error(), "allocs/op regressed") {
		t.Fatalf("allocs growing from a zero baseline not caught: err=%v\n%s", err, buf.String())
	}

	// Staying at zero passes.
	cur2 := benchJSON(t, "cur2.json", File{Benchmarks: map[string]Result{
		"BenchmarkZeroAlloc": {NsPerOp: 2_000, AllocsPerOp: 0},
	}})
	buf.Reset()
	if err := run([]string{"-baseline", base, "-current", cur2}, &buf); err != nil {
		t.Fatalf("unchanged zero-alloc benchmark failed the gate: %v", err)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkGone": {NsPerOp: 1_000_000, AllocsPerOp: 100},
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{}})
	var buf bytes.Buffer
	err := run([]string{"-baseline", base, "-current", cur}, &buf)
	if err == nil || !strings.Contains(err.Error(), "missing from current run") {
		t.Fatalf("missing tracked benchmark not caught: %v", err)
	}
}

func TestSummaryMarkdownTable(t *testing.T) {
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1_000_000, AllocsPerOp: 100},
		"BenchmarkB": {NsPerOp: 2_000_000, AllocsPerOp: 50},
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{
		"BenchmarkA":   {NsPerOp: 800_000, AllocsPerOp: 90},   // improved
		"BenchmarkB":   {NsPerOp: 2_800_000, AllocsPerOp: 50}, // +40% ns: regression
		"BenchmarkNew": {NsPerOp: 1_000, AllocsPerOp: 1},      // untracked
	}})
	summary := filepath.Join(t.TempDir(), "summary.md")
	var buf bytes.Buffer
	err := run([]string{"-baseline", base, "-current", cur, "-summary", summary}, &buf)
	if err == nil {
		t.Fatalf("gate passed a 40%% slowdown:\n%s", buf.String())
	}
	md, readErr := os.ReadFile(summary)
	if readErr != nil {
		t.Fatalf("summary not written despite gate failure: %v", readErr)
	}
	text := string(md)
	for _, want := range []string{
		"| benchmark | base ns/op | cur ns/op | Δns | base allocs | cur allocs | Δallocs | |",
		"| `BenchmarkA` | 1000000 | 800000 | -20.0% | 100 | 90 | -10.0% |  |",
		"| `BenchmarkB` | 2000000 | 2800000 | +40.0% | 50 | 50 | +0.0% | ❌ |",
		"| `BenchmarkNew` | untracked | 1000 | — | untracked | 1 | — | |",
		"**1 regression(s) over the 25% threshold.**",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}

	// A second comparison appends — the step-summary file accumulates.
	if err := run([]string{"-baseline", base, "-current", base, "-summary", summary}, &buf); err != nil {
		t.Fatalf("identity comparison failed the gate: %v", err)
	}
	md2, _ := os.ReadFile(summary)
	if n := strings.Count(string(md2), "### Benchmark gate"); n != 2 {
		t.Errorf("summary file has %d tables after two runs, want 2:\n%s", n, md2)
	}
	if !strings.Contains(string(md2), "gate ok: 2 tracked benchmarks within 25%") {
		t.Errorf("passing table missing gate-ok line:\n%s", md2)
	}
}

func TestSummaryFlagsMissingBenchmark(t *testing.T) {
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkGone": {NsPerOp: 1_000_000, AllocsPerOp: 100},
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{}})
	var md bytes.Buffer
	baseF, _ := readFile(base)
	curF, _ := readFile(cur)
	if err := renderMarkdown(&md, baseF, curF, 25, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| `BenchmarkGone` | 1000000 | missing | — | 100 | missing | — | ❌ |") {
		t.Errorf("missing benchmark row not rendered:\n%s", md.String())
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	in := writeSample(t, "empty.txt", "PASS\nok\n")
	var buf bytes.Buffer
	if err := run([]string{"-parse", in}, &buf); err == nil {
		t.Fatal("empty benchmark output accepted")
	}
}

func bytesPtr(b float64) *float64 { return &b }

// TestGateFailsOnBytesRegression pins the B/op gate: an entry whose
// baseline records B/op fails on a +30% B/op with ns/op and allocs/op
// flat, and an entry whose baseline has no B/op is not gated on it.
func TestGateFailsOnBytesRegression(t *testing.T) {
	base := benchJSON(t, "base.json", File{Benchmarks: map[string]Result{
		"BenchmarkSplice": {NsPerOp: 2_000_000, AllocsPerOp: 100, BytesPerOp: bytesPtr(1_000_000)},
		"BenchmarkPlain":  {NsPerOp: 2_000_000, AllocsPerOp: 100},
	}})
	cur := benchJSON(t, "cur.json", File{Benchmarks: map[string]Result{
		"BenchmarkSplice": {NsPerOp: 2_000_000, AllocsPerOp: 100, BytesPerOp: bytesPtr(1_300_000)},
		"BenchmarkPlain":  {NsPerOp: 2_000_000, AllocsPerOp: 100, BytesPerOp: bytesPtr(9_000_000)},
	}})
	var buf bytes.Buffer
	err := run([]string{"-baseline", base, "-current", cur, "-summary", filepath.Join(t.TempDir(), "s.md")}, &buf)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkSplice: B/op regressed 30.0%") {
		t.Fatalf("gate err = %v, want a B/op regression of BenchmarkSplice\n%s", err, buf.String())
	}
	if strings.Contains(err.Error(), "BenchmarkPlain") {
		t.Errorf("gated B/op of an entry whose baseline has none: %v", err)
	}

	base2 := benchJSON(t, "base2.json", File{Benchmarks: map[string]Result{
		"BenchmarkPlain": {NsPerOp: 2_000_000, AllocsPerOp: 100},
	}})
	if err := run([]string{"-baseline", base2, "-current", cur, "-summary", filepath.Join(t.TempDir(), "s.md")}, &buf); err != nil {
		t.Errorf("baseline without B/op failed the gate: %v", err)
	}
}

// TestParseBytesPerOp pins the B/op column: its median is kept, and
// output without -benchmem leaves the field out.
func TestParseBytesPerOp(t *testing.T) {
	f, err := parseBenchOutput(writeSample(t, "bench.txt", sampleBench+
		"BenchmarkNoMem-4 \t 10\t 2000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b := f.Benchmarks["BenchmarkStableRepairs/violations=3"].BytesPerOp; b == nil || *b != 298242 {
		t.Errorf("B/op = %v, want 298242", b)
	}
	if b := f.Benchmarks["BenchmarkNoMem"].BytesPerOp; b != nil {
		t.Errorf("B/op without -benchmem = %v, want none", *b)
	}
}
