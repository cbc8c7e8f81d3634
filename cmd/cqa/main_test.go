package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := f()
	w.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func writeFixtures(t *testing.T) (db, ic, q string) {
	t.Helper()
	dir := t.TempDir()
	db = filepath.Join(dir, "db.facts")
	ic = filepath.Join(dir, "rules.ic")
	q = filepath.Join(dir, "query.q")
	if err := os.WriteFile(db, []byte(`
		r(a, b).
		r(a, c).
		s(e, f).
		s(null, a).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ic, []byte(`
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
		r(X, Y), isnull(X) -> false.
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(q, []byte(`q(V) :- s(U, V).`), 0o644); err != nil {
		t.Fatal(err)
	}
	return db, ic, q
}

func TestCheckCommand(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "check"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"INCONSISTENT", "RIC-acyclic: true", "4 facts"} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
}

func TestRepairsCommand(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	for _, engine := range []string{"search", "program"} {
		out, err := capture(t, func() error {
			return run([]string{"-db", db, "-ic", ic, "-engine", engine, "repairs"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "repair 4:") || strings.Contains(out, "repair 5:") {
			t.Errorf("engine %s: expected exactly 4 repairs:\n%s", engine, out)
		}
	}
}

func TestRepairsClassic(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "-classic", "repairs"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "classic mode") {
		t.Errorf("classic flag ignored:\n%s", out)
	}
}

func TestAnswersCommand(t *testing.T) {
	db, ic, q := writeFixtures(t)
	for _, engine := range []string{"search", "program", "cautious"} {
		out, err := capture(t, func() error {
			return run([]string{"-db", db, "-ic", ic, "-query", q, "-engine", engine, "answers"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "consistent answers: 1") || !strings.Contains(out, "(a)") {
			t.Errorf("engine %s: unexpected answers:\n%s", engine, out)
		}
	}
}

// TestAnswersDirect exercises the repair-less engine end to end: on an
// FD-only fixture direct and auto agree with search, and on the mixed
// fixture direct fails with its scope error while auto falls back to search.
func TestAnswersDirect(t *testing.T) {
	fdDB := "r(a, b).\nr(a, c).\nr(d, b).\ns(e, a).\n"
	fdIC := "r(X, Y), r(X, Z) -> Y = Z."
	for _, engine := range []string{"direct", "auto"} {
		out, err := capture(t, func() error {
			return run([]string{"-db", fdDB, "-ic", fdIC, "-query", `q(V) :- s(U, V).`, "-engine", engine, "answers"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "consistent answers: 1") || !strings.Contains(out, "(a)") {
			t.Errorf("engine %s: unexpected answers:\n%s", engine, out)
		}
		if !strings.Contains(out, "repairs inspected: 2") {
			t.Errorf("engine %s: expected the exact repair count 2:\n%s", engine, out)
		}
	}

	db, ic, q := writeFixtures(t)
	if _, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "-query", q, "-engine", "direct", "answers"})
	}); err == nil || !strings.Contains(err.Error(), "direct engine:") {
		t.Errorf("direct on mixed constraints: err = %v, want scope error", err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "-query", q, "-engine", "auto", "answers"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "consistent answers: 1") || !strings.Contains(out, "(a)") {
		t.Errorf("auto on mixed constraints: unexpected answers:\n%s", out)
	}
}

// TestAnswersJSONGolden pins the -json answers document for the search
// engine (program engines report different diagnostics by design).
func TestAnswersJSONGolden(t *testing.T) {
	db, ic, q := writeFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "-query", q, "-json", "answers"})
	})
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"query":"q(V) :- s(U,V).","answer":{"tuples":[["a"]],"boolean":false,"num_repairs":4,"states_explored":7}}` + "\n"
	if out != golden {
		t.Errorf("answers -json differs:\n got %s\nwant %s", out, golden)
	}
	// The answer payload (tuples, boolean) is engine-independent even
	// though the diagnostics are not.
	for _, engine := range []string{"program", "cautious"} {
		out, err := capture(t, func() error {
			return run([]string{"-db", db, "-ic", ic, "-query", q, "-engine", engine, "-json", "answers"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, `"tuples":[["a"]],"boolean":false`) {
			t.Errorf("engine %s: unexpected -json answers:\n%s", engine, out)
		}
	}
}

func TestSemanticsCommand(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "semantics"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"null-aware", "simple-match", "full-match"} {
		if !strings.Contains(out, want) {
			t.Errorf("semantics output missing %q:\n%s", want, out)
		}
	}
}

func TestInlineInput(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{
			"-db", "p(a).\nq(a).",
			"-ic", "p(X), q(X) -> false.",
			"check",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "INCONSISTENT") {
		t.Errorf("inline input not handled:\n%s", out)
	}
}

func TestErrorPaths(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	cases := [][]string{
		{},                              // no command
		{"-db", db, "-ic", ic, "bogus"}, // unknown command
		{"-db", db, "check"},            // missing -ic
		{"-db", "missing.facts", "-ic", ic, "check"}, // missing file
		{"-db", db, "-ic", ic, "answers"},            // answers without -query
		{"-db", "p(X).", "-ic", ic, "check"},         // parse error
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	db, ic, q := writeFixtures(t)
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"repairs rejects typo'd engine", // used to silently fall back to search
			[]string{"-db", db, "-ic", ic, "-engine", "serach", "repairs"}, "unknown engine"},
		{"repairs rejects cautious", // cautious never materializes repairs
			[]string{"-db", db, "-ic", ic, "-engine", "cautious", "repairs"}, "never materializes repairs"},
		{"repairs rejects direct", // the classification never enumerates Rep(D)
			[]string{"-db", db, "-ic", ic, "-engine", "direct", "repairs"}, "never materializes repairs"},
		{"repairs rejects classic with program", // -classic used to be silently ignored
			[]string{"-db", db, "-ic", ic, "-classic", "-engine", "program", "repairs"}, "-classic requires -engine search"},
		{"answers rejects typo'd engine", // used to silently fall back to search
			[]string{"-db", db, "-ic", ic, "-query", q, "-engine", "progam", "answers"}, "unknown engine"},
		{"classic outside repairs",
			[]string{"-db", db, "-ic", ic, "-query", q, "-classic", "answers"}, "-classic only applies"},
		{"typo'd engine on check", // used to be silently ignored
			[]string{"-db", db, "-ic", ic, "-engine", "serach", "check"}, "unknown engine"},
		{"engine outside repairs/answers",
			[]string{"-db", db, "-ic", ic, "-engine", "program", "semantics"}, "-engine only applies"},
	}
	for _, tc := range cases {
		_, err := capture(t, func() error { return run(tc.args) })
		if err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestWorkersDeterministic pins that the CLI is a function of its input:
// repeated runs print byte-identical repair listings, answers and
// diagnostics on every engine — the search engine's states-explored line
// and a boolean query's short-circuit included.
func TestWorkersDeterministic(t *testing.T) {
	db, ic, q := writeFixtures(t)
	for _, cmd := range [][]string{
		{"-db", db, "-ic", ic, "repairs"},
		{"-db", db, "-ic", ic, "-query", q, "answers"},
		{"-db", db, "-ic", ic, "-query", "q :- r(a, b).", "answers"},
		{"-db", db, "-ic", ic, "-engine", "program", "repairs"},
		{"-db", db, "-ic", ic, "-engine", "program", "-query", q, "answers"},
		{"-db", db, "-ic", ic, "-engine", "cautious", "-query", q, "answers"},
	} {
		first, err := capture(t, func() error { return run(cmd) })
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 3; i++ {
			again, err := capture(t, func() error { return run(cmd) })
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Errorf("run %d output differs for %v:\n--- first ---\n%s--- again ---\n%s", i, cmd, first, again)
			}
		}
	}
}

// TestProfileFlags checks -cpuprofile/-memprofile produce non-empty pprof
// files alongside a normal run.
func TestProfileFlags(t *testing.T) {
	db, ic, q := writeFixtures(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "-query", q,
			"-engine", "cautious", "-cpuprofile", cpu, "-memprofile", mem, "answers"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "consistent answers") {
		t.Errorf("profiled run lost its output:\n%s", out)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile %s not written: %v", path, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}
