package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/wire"
)

// kind is what a request did, for the failed/attempted tally: the three
// op classes plus the set-up requests.
type kind uint8

const (
	kindCreate kind = kind(numClasses) + iota
	kindPrepare
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"apply_relevant", "apply_irrelevant", "query", "create", "prepare", "delete"}

// tally counts attempted and failed requests per kind and keeps the first
// few failure messages.
type tally struct {
	attempted, failed [numKinds]int
	errs              []string
}

func (t *tally) record(k kind, err error) {
	t.attempted[k]++
	if err == nil {
		return
	}
	t.failed[k]++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", kindNames[k], err))
	}
}

func (t *tally) totals() (attempted, failed int) {
	for k := range t.attempted {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return attempted, failed
}

func (t *tally) add(u *tally) {
	for k := range t.attempted {
		t.attempted[k] += u.attempted[k]
		t.failed[k] += u.failed[k]
	}
	t.errs = append(t.errs, u.errs...)
}

func decodeBody(status, wantStatus int, body []byte, v any) error {
	if status != wantStatus {
		return fmt.Errorf("status %d, want %d: %.200s", status, wantStatus, body)
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	return nil
}

func (w *workload) checkCreate(status int, body []byte) error {
	var r wire.CreateSessionResponse
	if err := decodeBody(status, http.StatusCreated, body, &r); err != nil {
		return err
	}
	switch {
	case r.Facts != w.facts:
		return fmt.Errorf("facts %d, want %d", r.Facts, w.facts)
	case r.Consistent:
		return fmt.Errorf("session reported consistent; the workload has %d open violations", w.violations)
	case r.Engine != w.resolved:
		return fmt.Errorf("engine %q, want %q", r.Engine, w.resolved)
	}
	return nil
}

// checkPrepare checks a standing query's initial answers and returns the
// query's display text, which later diffs are keyed by.
func (w *workload) checkPrepare(i, status int, body []byte) (string, error) {
	var r wire.AnswerResponse
	if err := decodeBody(status, http.StatusCreated, body, &r); err != nil {
		return "", err
	}
	if n := len(r.Answer.Tuples); n != w.standing[i].answers || r.Stale {
		return "", fmt.Errorf("%s: %d answers (stale %v), want %d", w.standing[i].text, n, r.Stale, w.standing[i].answers)
	}
	return r.Query, nil
}

// checkOp checks the response to one op against the workload's
// construction. names are the prepared queries' display texts.
func (w *workload) checkOp(o *op, names []string, status int, body []byte) error {
	if o.class == adhocQuery {
		var r wire.AnswerResponse
		if err := decodeBody(status, http.StatusOK, body, &r); err != nil {
			return err
		}
		if !sameTuples(r.Answer.Tuples, o.want.tuples) {
			return fmt.Errorf("%s: answers %v, want %v", r.Query, renderTuples(r.Answer.Tuples), o.want.tuples)
		}
		if r.Answer.NumRepairs != w.repairs {
			return fmt.Errorf("%s: num_repairs %d, want %d", r.Query, r.Answer.NumRepairs, w.repairs)
		}
		return nil
	}
	var r wire.ApplyResponse
	if err := decodeBody(status, http.StatusOK, body, &r); err != nil {
		return err
	}
	switch {
	case r.Result.ConstraintRelevant != (o.class == applyRelevant):
		return fmt.Errorf("constraint_relevant %v for a %s op", r.Result.ConstraintRelevant, o.class)
	case len(r.Result.Applied.Added)+len(r.Result.Applied.Removed) == 0:
		return fmt.Errorf("apply was a no-op; every op of the stream is effective")
	case r.Consistent || r.Violations != w.violations:
		return fmt.Errorf("consistent %v with %d violations, want %d violations", r.Consistent, r.Violations, w.violations)
	case len(r.Updates) != len(o.want.updates):
		return fmt.Errorf("%d standing-query updates, want %d", len(r.Updates), len(o.want.updates))
	}
	for i, u := range r.Updates {
		want := o.want.updates[i]
		if u.Query != names[want.query] || !sameTuples(u.Added, want.added) || !sameTuples(u.Removed, want.removed) {
			return fmt.Errorf("update %d: %s +%v -%v, want %s +%v -%v", i, u.Query,
				renderTuples(u.Added), renderTuples(u.Removed), names[want.query], want.added, want.removed)
		}
	}
	return nil
}
