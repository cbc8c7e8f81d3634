package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSessionScript(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "script.txt")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSessionCommandGolden pins the full -session transcript for a scripted
// update sequence on the shared fixture, for each engine: standing-query
// registration, O(|Δ|) applies with their summaries, and the pushed answer
// diffs. The golden text is engine-independent by construction (certain
// answers are engine-independent, and the summary lines print no
// engine-specific diagnostics).
func TestSessionCommandGolden(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	script := writeSessionScript(t, `
		# standing queries over the inconsistent fixture
		query q(V) :- s(U, V).
		query q :- r(a, b).

		# unconstrained relation: fast path, nothing refreshed
		insert t(x, y).

		# resolve the key conflict in favour of r(a, b)
		delete r(a, c).

		# no-op: already gone
		delete r(a, c).

		query q(V) :- s(U, V).
	`)
	const golden = `session: 4 facts, 3 constraints, engine %s
query q(V) :- s(U,V).
  consistent answers: 1
    (a)
query q() :- r(a,b).
  consistent answer: false
insert t(x, y).
  applied +1/-0 facts, constraint-relevant: false
  now INCONSISTENT (3 violations); queries refreshed 0, skipped 2
delete r(a, c).
  applied +0/-1 facts, constraint-relevant: true
  now INCONSISTENT (1 violations); queries refreshed 2, skipped 0
  q() :- r(a,b). -> true
delete r(a, c).
  no effective change
query q(V) :- s(U,V).
  consistent answers: 1
    (a)
`
	for _, engine := range []string{"search", "program", "cautious"} {
		out, err := capture(t, func() error {
			return run([]string{"-db", db, "-ic", ic, "-engine", engine, "-session", script})
		})
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		want := strings.Replace(golden, "%s", engine, 1)
		if out != want {
			t.Errorf("engine %s transcript differs:\n--- got ---\n%s--- want ---\n%s", engine, out, want)
		}
	}
}

// TestSessionJSONGolden pins the -json session transcript: one compact wire
// document per script line (wire.AnswerResponse for queries,
// wire.ApplyResponse for updates). The documents are pinned for the search
// engine; program engines produce different cache diagnostics inside
// result, by design.
//
// The golden lives in testdata/session_json.golden because the cqad daemon
// replays the identical script over HTTP against the same file — one file,
// two transports, byte-identical outputs (see cmd/cqad's parity test).
func TestSessionJSONGolden(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	script := writeSessionScript(t, `
		query q(V) :- s(U, V).
		query p :- r(a, b).
		insert t(x, y).
		delete r(a, c).
		delete r(a, c).
		query q(V) :- s(U, V).
	`)
	golden, err := os.ReadFile(filepath.Join("testdata", "session_json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-db", db, "-ic", ic, "-json", "-session", script})
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("JSON transcript differs:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
}

// TestSessionWorkersDeterministic extends the CLI determinism pin to the
// session transcript: repeated runs print identical transcripts.
func TestSessionWorkersDeterministic(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	script := writeSessionScript(t, `
		query q(V) :- s(U, V).
		insert r(b, b). s(g, b).
		delete r(a, b).
		query q(X, Y) :- r(X, Y).
	`)
	for _, engine := range []string{"search", "program", "cautious"} {
		args := []string{"-db", db, "-ic", ic, "-engine", engine, "-session", script}
		first, err := capture(t, func() error { return run(args) })
		if err != nil {
			t.Fatal(err)
		}
		again, err := capture(t, func() error { return run(args) })
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Errorf("engine %s: repeated session transcript differs:\n--- first ---\n%s--- again ---\n%s", engine, first, again)
		}
	}
}

// TestSessionErrorPaths pins the script-level and flag-level failures.
func TestSessionErrorPaths(t *testing.T) {
	db, ic, _ := writeFixtures(t)
	bad := func(src string) string { return writeSessionScript(t, src) }
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"session with positional command",
			[]string{"-db", db, "-ic", ic, "-session", bad("query q :- r(a, b)."), "check"},
			"-session is a command"},
		{"missing script file",
			[]string{"-db", db, "-ic", ic, "-session", filepath.Join(t.TempDir(), "nope.txt")},
			"loading -session script"},
		{"unknown verb",
			[]string{"-db", db, "-ic", ic, "-session", bad("upsert r(a, b).")},
			`unknown command "upsert"`},
		{"bad fact",
			[]string{"-db", db, "-ic", ic, "-session", bad("insert r(X).")},
			"parsing facts"},
		{"bad query",
			[]string{"-db", db, "-ic", ic, "-session", bad("query q( :- .")},
			"parsing query"},
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

// TestSessionCountsNNCViolations pins the violation count of a session
// whose only violation is a NOT NULL-constraint violation: the text and the
// -json transcript both count it, as cqad's apply endpoint does.
func TestSessionCountsNNCViolations(t *testing.T) {
	script := writeSessionScript(t, `
		query q(X) :- r(X, Y).
		insert r(null, c).
	`)
	args := []string{"-db", "r(a, b).", "-ic", "r(X, Y), r(X, Z) -> Y = Z. r(X, Y), isnull(X) -> false.", "-session", script}
	out, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if want := "now INCONSISTENT (1 violations)"; !strings.Contains(out, want) {
		t.Errorf("text transcript lacks %q:\n%s", want, out)
	}
	out, err = capture(t, func() error { return run(append([]string{"-json"}, args...)) })
	if err != nil {
		t.Fatal(err)
	}
	if want := `"consistent":false,"violations":1}`; !strings.Contains(out, want) {
		t.Errorf("JSON transcript lacks %q:\n%s", want, out)
	}
}

// TestSessionTellsConstantFromVariable pins the standing-query identity of a
// script: a query with the string constant "C15" and one with the variable
// C15 print alike, but they are two standing queries with their own answers.
func TestSessionTellsConstantFromVariable(t *testing.T) {
	script := writeSessionScript(t, `
		query q(X) :- p(X, "C15").
		query q(X) :- p(X, C15).
		query q(X) :- p(X, "C15").
	`)
	out, err := capture(t, func() error {
		return run([]string{"-db", `p(a, "C15"). p(b, c16).`, "-ic", "p(X, Y), p(X, Z) -> Y = Z.", "-session", script})
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = `session: 2 facts, 1 constraints, engine search
query q(X) :- p(X,C15).
  consistent answers: 1
    (a)
query q(X) :- p(X,C15).
  consistent answers: 2
    (a)
    (b)
query q(X) :- p(X,C15).
  consistent answers: 1
    (a)
`
	if out != want {
		t.Errorf("transcript differs:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}
