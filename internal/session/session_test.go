package session

import (
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/value"
)

func fixtureSet() string {
	return `
		r(X, Y), r(X, Z) -> Y = Z.
		s(U, V) -> r(V, W).
	`
}

func fixtureSession(t *testing.T, opts Options) *Session {
	t.Helper()
	d := parser.MustInstance(`
		r(a, b).
		r(a, c).
		s(e, f).
		t(x, y).
	`)
	return New(d, parser.MustConstraints(fixtureSet()), opts)
}

func str(s string) value.V { return value.Str(s) }

// TestIrrelevantUpdateRebasesRepairs pins the constraint-irrelevance fast
// path: an update touching only the unconstrained t relation keeps every
// cached repair (same deltas, advanced contents) without re-enumerating.
func TestIrrelevantUpdateRebasesRepairs(t *testing.T) {
	s := fixtureSession(t, NewOptions())
	before, err := s.Repairs()
	if err != nil {
		t.Fatal(err)
	}
	statsBefore := s.searchStats

	newFact := relational.F("t", str("p"), str("q"))
	res, err := s.Apply(relational.Delta{Added: []relational.Fact{newFact}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConstraintRelevant {
		t.Error("t-only update reported constraint-relevant")
	}
	if res.RepairsSurvived != len(before) || res.RepairsInvalidated != 0 || res.Reenumerated {
		t.Errorf("fast path stats: %+v (want all %d survived)", res, len(before))
	}
	if !s.repairsOK {
		t.Fatal("repair cache dropped on irrelevant update")
	}
	if s.searchStats != statsBefore {
		t.Error("search stats changed without a re-enumeration")
	}
	after, err := s.Repairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("repair count changed: %d -> %d", len(before), len(after))
	}
	for _, r := range after {
		if !r.Has(newFact) {
			t.Errorf("rebased repair lost the new passthrough fact: %s", r)
		}
	}
}

// TestRelevantUpdateInvalidatesTouchedRepairs pins the invalidation
// count: deleting a fact that some repair deltas remove invalidates
// exactly those repairs, and untouched candidates are counted as
// survivors when their deltas reappear in the re-enumeration.
func TestRelevantUpdateInvalidatesTouchedRepairs(t *testing.T) {
	s := fixtureSession(t, NewOptions())
	if _, err := s.Prepare(parser.MustQuery(`q(V) :- s(U, V).`)); err != nil {
		t.Fatal(err)
	}
	deltas, err := s.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	// r(a, b) shows up in the deltas of the repairs that resolve the key
	// conflict by dropping it.
	target := relational.F("r", str("a"), str("b"))
	touched := 0
	for _, dl := range deltas {
		if deltaHasFact(dl, target) {
			touched++
		}
	}
	if touched == 0 {
		t.Fatalf("fixture lost its premise: no repair delta touches %s", target)
	}

	res, err := s.Apply(relational.Delta{Removed: []relational.Fact{target}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConstraintRelevant {
		t.Error("r update reported irrelevant")
	}
	if res.RepairsInvalidated != touched {
		t.Errorf("RepairsInvalidated = %d, want %d", res.RepairsInvalidated, touched)
	}
	if !res.Reenumerated {
		t.Error("relevant update with a prepared query did not re-enumerate")
	}
	// Removing r(a, b) dissolves the key conflict, so even the untouched
	// candidates' deltas cannot reappear verbatim.
	if res.RepairsSurvived != 0 {
		t.Errorf("RepairsSurvived = %d after a conflict-dissolving removal", res.RepairsSurvived)
	}
}

func hasFact(fs []relational.Fact, f relational.Fact) bool {
	for _, g := range fs {
		if g.Equal(f) {
			return true
		}
	}
	return false
}

func deltaHasFact(dl relational.Delta, f relational.Fact) bool {
	return hasFact(dl.Removed, f) || hasFact(dl.Added, f)
}

// TestRelevantUpdateCountsBothHalves pins RepairsInvalidated and
// RepairsSurvived against hand counts over Deltas() when one batch meets
// one repair's removed half and another repair's added half (the RIC's
// null insertion r(f, null)), while a third repair's delta survives: the
// batch swaps r(a, b) for r(a, d) and s(e, f) gains an FD rival, so
// dropping r(a, c) and s(e, f) is a repair again.
func TestRelevantUpdateCountsBothHalves(t *testing.T) {
	for _, eng := range []Engine{EngineSearch, EngineProgram} {
		t.Run(eng.String(), func(t *testing.T) {
			opts := NewOptions()
			opts.Engine = eng
			s := New(parser.MustInstance(`r(a, b). r(a, c). s(e, f). r(g, h).`),
				parser.MustConstraints(`
					r(X, Y), r(X, Z) -> Y = Z.
					s(X, Y), s(X, Z) -> Y = Z.
					s(U, V) -> r(V, W).
				`), opts)
			if _, err := s.Prepare(parser.MustQuery(`q(V) :- s(U, V).`)); err != nil {
				t.Fatal(err)
			}
			before, err := s.Deltas()
			if err != nil {
				t.Fatal(err)
			}
			batch := relational.Delta{
				Removed: []relational.Fact{relational.F("r", str("a"), str("b"))},
				Added: []relational.Fact{
					relational.F("r", str("a"), str("d")),
					relational.F("r", str("f"), value.Null()),
					relational.F("s", str("e"), str("g")),
				},
			}
			var retained []relational.Delta
			removedHit, addedHit := false, false
			for _, dl := range before {
				hit := false
				for _, f := range batch.Facts() {
					removedHit = removedHit || hasFact(dl.Removed, f)
					addedHit = addedHit || hasFact(dl.Added, f)
					hit = hit || deltaHasFact(dl, f)
				}
				if !hit {
					retained = append(retained, dl)
				}
			}
			if !removedHit || !addedHit || len(retained) == 0 {
				t.Fatalf("fixture lost its premise: removed half hit %v, added half hit %v, %d retained of %v",
					removedHit, addedHit, len(retained), before)
			}

			res, err := s.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			after, err := s.Deltas()
			if err != nil {
				t.Fatal(err)
			}
			survived := 0
			for _, dl := range retained {
				for _, nd := range after {
					if dl.String() == nd.String() {
						survived++
					}
				}
			}
			if !res.ConstraintRelevant || !res.Reenumerated {
				t.Errorf("relevant batch: %+v", res)
			}
			if want := len(before) - len(retained); res.RepairsInvalidated != want {
				t.Errorf("RepairsInvalidated = %d, want %d", res.RepairsInvalidated, want)
			}
			if res.RepairsSurvived != survived || survived == 0 {
				t.Errorf("RepairsSurvived = %d, want %d (> 0)", res.RepairsSurvived, survived)
			}
		})
	}
}

// TestRelevantUpdatePreservingConflictsKeepsAll pins the survivor count on
// the other relevant-path outcome: an insert over a constrained relation
// that creates no new violation and joins no repair delta leaves every
// candidate intact, and the re-enumeration confirms all of them.
func TestRelevantUpdatePreservingConflictsKeepsAll(t *testing.T) {
	s := fixtureSession(t, NewOptions())
	if _, err := s.Prepare(parser.MustQuery(`q(V) :- s(U, V).`)); err != nil {
		t.Fatal(err)
	}
	before, err := s.Repairs()
	if err != nil {
		t.Fatal(err)
	}
	// r(c, d) is on a fresh key value and does not witness the dangling
	// RIC reference s(e, f) -> r(f, W), so the violation set — and hence
	// every minimal repair delta — is unchanged.
	res, err := s.Apply(relational.Delta{Added: []relational.Fact{relational.F("r", str("c"), str("d"))}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConstraintRelevant {
		t.Error("r update reported irrelevant")
	}
	if res.RepairsInvalidated != 0 {
		t.Errorf("RepairsInvalidated = %d for a fact outside every delta", res.RepairsInvalidated)
	}
	if res.RepairsSurvived != len(before) {
		t.Errorf("RepairsSurvived = %d, want all %d", res.RepairsSurvived, len(before))
	}
}

// TestPreparedSkipRule pins the refresh skip: a constraint-irrelevant
// update only refreshes prepared queries that mention a changed relation.
func TestPreparedSkipRule(t *testing.T) {
	s := fixtureSession(t, NewOptions())
	if _, err := s.Prepare(parser.MustQuery(`q(V) :- s(U, V).`)); err != nil {
		t.Fatal(err)
	}
	pt, err := s.Prepare(parser.MustQuery(`q(X) :- t(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(relational.Delta{Added: []relational.Fact{relational.F("t", str("p"), str("q"))}})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesSkipped != 1 || res.QueriesRefreshed != 1 {
		t.Errorf("skip rule: %+v (want 1 skipped, 1 refreshed)", res)
	}
	found := false
	for _, tu := range pt.Answers() {
		if tu.Key() == (relational.Tuple{str("p")}).Key() {
			found = true
		}
	}
	if !found {
		t.Errorf("t query missed the inserted fact: %v", pt.Answers())
	}
}

// TestBooleanSubscribeFlip pins boolean notifications: the verdict flip is
// pushed exactly when it happens.
func TestBooleanSubscribeFlip(t *testing.T) {
	d := parser.MustInstance(`r(a, b).`)
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
	s := New(d, set, NewOptions())
	p, err := s.Prepare(parser.MustQuery(`q :- r(a, b).`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Boolean() {
		t.Fatal("q should hold on the consistent base")
	}
	var flips []bool
	p.Subscribe(func(u QueryUpdate) {
		if u.BooleanChanged {
			flips = append(flips, u.Boolean)
		}
	})
	// Adding r(a, c) makes the key conflict: one repair drops r(a, b), so
	// the certain answer flips to no.
	if _, err := s.Apply(relational.Delta{Added: []relational.Fact{relational.F("r", str("a"), str("c"))}}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(flips) != "[false]" {
		t.Fatalf("flips = %v, want [false]", flips)
	}
	// Removing it again restores the verdict.
	if _, err := s.Apply(relational.Delta{Removed: []relational.Fact{relational.F("r", str("a"), str("c"))}}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(flips) != "[false true]" {
		t.Fatalf("flips = %v, want [false true]", flips)
	}
}

// TestNoOpApply pins that an ineffective delta changes nothing and fires
// nothing: one of a present insert and an absent delete, and one that
// removes a present constrained fact and adds it back.
func TestNoOpApply(t *testing.T) {
	rab := relational.F("r", str("a"), str("b"))
	for name, dl := range map[string]relational.Delta{
		"present insert, absent delete": {
			Added:   []relational.Fact{rab},
			Removed: []relational.Fact{relational.F("r", str("z"), str("z"))},
		},
		"remove and re-add": {Removed: []relational.Fact{rab}, Added: []relational.Fact{rab}},
	} {
		s := fixtureSession(t, NewOptions())
		p, err := s.Prepare(parser.MustQuery(`q(V) :- s(U, V).`))
		if err != nil {
			t.Fatal(err)
		}
		p.Subscribe(func(QueryUpdate) { t.Errorf("%s: no-op apply notified a subscriber", name) })
		res, err := s.Apply(dl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied.Size() != 0 || res.ConstraintRelevant || res.RepairsInvalidated != 0 || res.Reenumerated {
			t.Errorf("%s: no-op apply result: %+v", name, res)
		}
		if !s.repairsOK {
			t.Errorf("%s: no-op apply dropped the repair cache", name)
		}
	}
}

// TestClassicModeConservative pins that classic mode treats every update
// as constraint-relevant: the irrelevance theorem is null-based only (any
// fact extends the classic insertion domain).
func TestClassicModeConservative(t *testing.T) {
	opts := NewOptions()
	opts.Repair.Mode = repair.Classic
	s := fixtureSession(t, opts)
	if _, err := s.Repairs(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(relational.Delta{Added: []relational.Fact{relational.F("t", str("p"), str("q"))}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConstraintRelevant {
		t.Error("classic mode must treat every effective update as relevant")
	}
	if s.repairsOK {
		t.Error("classic mode kept the repair cache across an update")
	}
}

// TestReanchorKeepsAnswers drives the head past the rebase threshold and
// checks the session stays correct: the anchor is refreshed, prepared
// plans are rebuilt, and answers still match a scratch computation.
func TestReanchorKeepsAnswers(t *testing.T) {
	s := fixtureSession(t, NewOptions())
	p, err := s.Prepare(parser.MustQuery(`q(X) :- t(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	anchorBefore := s.head.Anchor()
	// Push well past rebaseThreshold with passthrough inserts.
	for i := 0; i < rebaseThreshold+10; i++ {
		f := relational.F("t", str(fmt.Sprintf("k%03d", i)), str("v"))
		if _, err := s.Apply(relational.Delta{Added: []relational.Fact{f}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.head.Anchor() == anchorBefore {
		t.Fatal("head never re-anchored past the threshold")
	}
	if s.head.Drift() > rebaseThreshold {
		t.Fatalf("drift %d still above threshold after reanchor", s.head.Drift())
	}
	if got := len(p.Answers()); got != rebaseThreshold+10+1 {
		t.Fatalf("prepared answers = %d tuples, want %d", got, rebaseThreshold+10+1)
	}
	// And the repair cache still matches a fresh enumeration.
	sessionRepairs, err := s.Repairs()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(s.head.Current().Clone(), s.set, s.opts)
	scratchRepairs, err := fresh.Repairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessionRepairs) != len(scratchRepairs) {
		t.Fatalf("repairs diverged after reanchor: %d vs %d", len(sessionRepairs), len(scratchRepairs))
	}
	for i := range sessionRepairs {
		if sessionRepairs[i].Key() != scratchRepairs[i].Key() {
			t.Fatalf("repair %d differs after reanchor", i)
		}
	}
}

// TestSeedValidation pins the repair.Seed length check.
func TestSeedValidation(t *testing.T) {
	d := parser.MustInstance(`r(a, b).`)
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
	opts := repair.Options{Seed: &repair.Seed{}}
	opts.Seed.Viols = nil
	if _, err := repair.Repairs(d, set, opts); err == nil {
		t.Error("mismatched seed length accepted")
	}
}

// TestCautiousPassthroughDriftKeepsTranslation pins the passthrough queue:
// an update that touches only a passthrough relation joins the
// translation's queued changes, so every later query, including one over
// the drifted relation, keeps the cached translation and sees the new fact.
func TestCautiousPassthroughDriftKeepsTranslation(t *testing.T) {
	opts := NewOptions()
	opts.Engine = EngineProgramCautious
	s := fixtureSession(t, opts)
	qt := parser.MustQuery(`q(X) :- t(X, Y).`)
	qs := parser.MustQuery(`q(V) :- s(U, V).`)
	if _, err := s.Answer(qt); err != nil {
		t.Fatal(err)
	}
	cb := s.eng.(*cautiousBackend)
	trBefore := cb.tr
	if trBefore == nil {
		t.Fatal("no cached translation after a cautious answer")
	}
	if _, err := s.Apply(relational.Delta{Added: []relational.Fact{relational.F("t", str("p"), str("q"))}}); err != nil {
		t.Fatal(err)
	}
	if cb.tr != trBefore {
		t.Fatal("passthrough-only update dropped the translation")
	}
	if _, err := s.Answer(qs); err != nil {
		t.Fatal(err)
	}
	ans, err := s.Answer(qt)
	if err != nil {
		t.Fatal(err)
	}
	if cb.tr != trBefore {
		t.Error("a query after a passthrough update rebuilt the translation")
	}
	found := false
	for _, tu := range ans.Tuples {
		if tu.Key() == (relational.Tuple{str("p")}).Key() {
			found = true
		}
	}
	if !found {
		t.Errorf("cautious answer missed the drifted passthrough fact: %v", ans.Tuples)
	}
}

// TestDeltaSetDedup pins the fingerprint+Equal dedup that replaced the
// string delta keys on the cautious hot path.
func TestDeltaSetDedup(t *testing.T) {
	a := relational.F("r", str("a"), str("b"))
	b := relational.F("r", str("a"), str("c"))
	ds := relational.NewDeltaSet()
	d1 := relational.Delta{Removed: []relational.Fact{a}}
	d2 := relational.Delta{Added: []relational.Fact{a}}
	d3 := relational.Delta{Removed: []relational.Fact{a}, Added: []relational.Fact{b}}
	if !ds.Add(d1) || !ds.Add(d2) || !ds.Add(d3) {
		t.Fatal("distinct deltas rejected")
	}
	if ds.Add(d1) || ds.Add(d3) {
		t.Fatal("duplicate deltas accepted")
	}
	if ds.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ds.Len())
	}
	if !ds.Has(d2) || ds.Has(relational.Delta{Added: []relational.Fact{b}}) {
		t.Fatal("Has misreports membership")
	}
}
