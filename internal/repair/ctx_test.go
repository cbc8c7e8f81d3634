package repair

import (
	"context"
	"errors"
	"testing"

	"repro/internal/parser"
	"repro/internal/relational"
)

// TestEnumerateCtxCancel pins the cancellation contract: cancelling the
// context mid-stream aborts the search with ctx.Err(), after strictly fewer
// leaves than the full enumeration delivers.
func TestEnumerateCtxCancel(t *testing.T) {
	// Eight FD-violating pairs: 2^8 = 256 repairs and a much larger state
	// space, so a cancellation fired at the first leaf always lands while
	// plenty of work remains for every driver.
	src := ""
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		src += "r(" + k + ", x). r(" + k + ", y).\n"
	}
	d := parser.MustInstance(src)
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)

	fullStats, err := Enumerate(d, set, Options{}, func(*relational.Instance) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.Leaves < 2 {
		t.Fatalf("fixture too small: %d leaves", fullStats.Leaves)
	}

	ctx, cancel := context.WithCancel(context.Background())
	leaves := 0
	_, err = EnumerateCtx(ctx, d, set, Options{}, func(*relational.Instance) bool {
		leaves++
		cancel() // cancel mid-stream, keep yielding true
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if leaves >= fullStats.Leaves {
		t.Errorf("cancelled run still delivered all %d leaves", leaves)
	}

	// A pre-cancelled context aborts before any exploration.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, err := RepairsCtx(ctx, d, set, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RepairsCtx err = %v, want context.Canceled", err)
	}
}
