package session

import (
	"context"
	"errors"
	"testing"

	"repro/internal/parser"
	"repro/internal/relational"
)

// TestCancelledAnswerReturnsCtxErr pins the cancellation contract of
// AnswerCtx: a cancelled context aborts the enumeration with ctx.Err() for
// every engine, and the session answers normally afterwards (the cache is
// never poisoned by a partial fill).
func TestCancelledAnswerReturnsCtxErr(t *testing.T) {
	q := parser.MustQuery(`q(X) :- r(a, X).`)
	for _, eng := range []Engine{EngineSearch, EngineProgram, EngineProgramCautious} {
		opts := NewOptions()
		opts.Engine = eng
		s := fixtureSession(t, opts)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.AnswerCtx(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: cancelled AnswerCtx err = %v, want context.Canceled", eng, err)
		}
		if s.repairsOK && eng == EngineSearch {
			t.Fatalf("%v: cancelled answer populated the repair cache", eng)
		}

		got, err := s.Answer(q)
		if err != nil {
			t.Fatalf("%v: answer after cancellation: %v", eng, err)
		}
		want, err := fixtureSession(t, opts).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tuples) != len(want.Tuples) || got.NumRepairs != want.NumRepairs {
			t.Errorf("%v: post-cancel answer %+v differs from fresh session %+v", eng, got, want)
		}
	}
}

// TestCancelledApplyLeavesSessionUsable pins the non-poisoning contract of
// ApplyCtx: when cancellation interrupts the prepared-query refresh, the
// update itself is applied, the interrupted query is flagged invalid, and
// both ad-hoc answers and the next successful Apply behave exactly as on an
// untouched session over the same data.
func TestCancelledApplyLeavesSessionUsable(t *testing.T) {
	q := parser.MustQuery(`q(X) :- r(a, X).`)
	s := fixtureSession(t, NewOptions())
	p, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid() {
		t.Fatal("prepared query invalid after Prepare")
	}

	// A constraint-relevant update forces a refresh, which the cancelled
	// context aborts before any enumeration work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	add := relational.F("r", str("a"), str("d"))
	if _, err := s.ApplyCtx(ctx, relational.Delta{Added: []relational.Fact{add}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ApplyCtx err = %v, want context.Canceled", err)
	}
	if p.Valid() {
		t.Error("interrupted prepared query still marked valid")
	}
	if !s.Current().Has(add) {
		t.Error("update lost by cancelled Apply")
	}

	// Ad-hoc answering works and matches a fresh session on the same head.
	got, err := s.Answer(q)
	if err != nil {
		t.Fatalf("answer after cancelled Apply: %v", err)
	}
	fresh := New(s.Current(), s.Set(), s.Options())
	want, err := fresh.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) || got.NumRepairs != want.NumRepairs {
		t.Errorf("post-cancel answer %+v differs from fresh session %+v", got, want)
	}

	// The next successful Apply re-validates the prepared query and
	// notifies subscribers (wasValid=false forces the notification).
	notified := 0
	p.Subscribe(func(QueryUpdate) { notified++ })
	if _, err := s.Apply(relational.Delta{Removed: []relational.Fact{add}}); err != nil {
		t.Fatalf("apply after cancellation: %v", err)
	}
	if !p.Valid() {
		t.Error("prepared query not re-validated by successful Apply")
	}
	if notified == 0 {
		t.Error("subscriber not notified on re-validation")
	}
}

// TestCancelledApplyInvalidatesUnrefreshed pins that an interrupted apply
// leaves no prepared query it reached claiming answers from before the
// update: the first refresh fails on the cancelled context, so the later
// queries are never refreshed and must be marked invalid with it. The next
// apply revalidates them with the scratch answers.
func TestCancelledApplyInvalidatesUnrefreshed(t *testing.T) {
	s := fixtureSession(t, NewOptions())
	var ps []*Prepared
	for _, src := range []string{`q(X) :- r(a, X).`, `q(X, Y) :- r(X, Y).`, `q(X) :- t(X, Y).`} {
		p, err := s.Prepare(parser.MustQuery(src))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	add := relational.F("r", str("d"), str("e"))
	if _, err := s.ApplyCtx(ctx, relational.Delta{Added: []relational.Fact{add}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ApplyCtx err = %v, want context.Canceled", err)
	}
	for i, p := range ps {
		if p.Valid() {
			t.Errorf("query %d valid after an interrupted apply", i)
		}
	}
	if _, err := s.Apply(relational.Delta{Added: []relational.Fact{relational.F("s", str("g"), str("h"))}}); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if !p.Valid() {
			t.Fatalf("query %d invalid after a successful apply", i)
		}
		want, err := New(s.Current(), s.Set(), s.Options()).Answer(p.Query())
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Answers()) != len(want.Tuples) {
			t.Errorf("query %d: %v, scratch %v", i, p.Answers(), want.Tuples)
		}
	}
}
