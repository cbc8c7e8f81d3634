package stable

import (
	"context"
	"errors"
	"testing"
)

// TestEnumerateCtxCancel pins the cancellation contract: a cancelled
// context aborts the model stream with ctx.Err() instead of reporting a
// (spuriously complete) enumeration.
func TestEnumerateCtxCancel(t *testing.T) {
	// Ten independent binary components: 2^10 combined models.
	gp := groundProgram(t, choiceProgram(10))

	var full int
	if err := Enumerate(gp, Options{}, func(Model) bool { full++; return true }); err != nil {
		t.Fatal(err)
	}
	if full != 1024 {
		t.Fatalf("full stream = %d models, want 1024", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := EnumerateCtx(ctx, gp, Options{}, func(Model) bool {
		seen++
		if seen == 3 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= full {
		t.Errorf("cancelled stream still delivered all %d models", seen)
	}

	// Pre-cancelled: no models at all.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if err := EnumerateCtx(ctx, gp, Options{}, func(Model) bool {
		t.Fatal("model delivered on a pre-cancelled context")
		return false
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}
