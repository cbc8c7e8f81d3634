package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/constraint"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/wire"
)

// cmdSession runs a -session script: a line-oriented file of
//
//	query  q(V) :- s(U, V).
//	insert r(a, b). r(a, c).
//	delete r(a, b).
//
// driving one persistent session. Each query line registers (or re-prints)
// a standing query; each insert/delete applies one delta in O(|Δ|) and
// prints the update summary followed by the answer diffs of every standing
// query whose certain answers changed. Blank lines and #-comments are
// skipped.
//
// With jsonOut each line produces one compact wire document instead of
// text: wire.AnswerResponse for query lines, wire.ApplyResponse for
// insert/delete lines — the same documents the cqad daemon serves, so a
// script replayed over HTTP is byte-comparable to this output.
func cmdSession(d *relational.Instance, set *constraint.Set, script string, engineName string, jsonOut bool) error {
	opts, err := engine.Options(engineName, 0)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(script)
	if err != nil {
		return fmt.Errorf("loading -session script: %w", err)
	}

	s := session.New(d, set, opts)
	if !jsonOut {
		fmt.Printf("session: %d facts, %d constraints, engine %s\n",
			d.Len(), len(set.ICs)+len(set.NNCs), engineName)
	}

	// Standing queries in registration order, with their pending
	// subscription diffs collected across the enclosing Apply.
	type standing struct {
		p    *session.Prepared
		diff *session.QueryUpdate
	}
	var queries []*standing
	byKey := map[string]*standing{}

	for ln, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		verb, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch verb {
		case "query":
			q, err := parser.Query(rest)
			if err != nil {
				return fmt.Errorf("line %d: parsing query: %w", ln+1, err)
			}
			// Key by the canonical render: the display form q.String()
			// prints the string constant "C15" like the variable C15.
			key := wire.FromQuery(q).Source
			st, seen := byKey[key]
			if !seen {
				p, err := s.Prepare(q)
				if err != nil {
					return fmt.Errorf("line %d: %w", ln+1, err)
				}
				st = &standing{p: p}
				st.p.Subscribe(func(u session.QueryUpdate) { st.diff = &u })
				byKey[key] = st
				queries = append(queries, st)
			}
			if jsonOut {
				if err := emitJSON(wire.PreparedResponse(st.p)); err != nil {
					return err
				}
				continue
			}
			fmt.Printf("query %s\n", q)
			if q.IsBoolean() {
				fmt.Printf("  consistent answer: %v\n", st.p.Boolean())
				continue
			}
			ans := st.p.Answers()
			fmt.Printf("  consistent answers: %d\n", len(ans))
			for _, t := range ans {
				fmt.Println("    " + t.String())
			}
		case "insert", "delete":
			inst, err := parser.Instance(rest)
			if err != nil {
				return fmt.Errorf("line %d: parsing facts: %w", ln+1, err)
			}
			var dl relational.Delta
			if verb == "insert" {
				dl.Added = inst.Facts()
			} else {
				dl.Removed = inst.Facts()
			}
			res, err := s.Apply(dl)
			if err != nil {
				return fmt.Errorf("line %d: applying update: %w", ln+1, err)
			}
			var updates []session.QueryUpdate
			for _, st := range queries {
				if st.diff != nil {
					updates = append(updates, *st.diff)
					st.diff = nil
				}
			}
			resp := wire.NewApplyResponse(s, res, updates)
			if jsonOut {
				if err := emitJSON(resp); err != nil {
					return err
				}
				continue
			}
			fmt.Printf("%s %s\n", verb, rest)
			if res.Applied.Size() == 0 {
				fmt.Println("  no effective change")
				continue
			}
			fmt.Printf("  applied %+d/-%d facts, constraint-relevant: %v\n",
				len(res.Applied.Added), len(res.Applied.Removed), res.ConstraintRelevant)
			consistent := "consistent"
			if !resp.Consistent {
				consistent = fmt.Sprintf("INCONSISTENT (%d violations)", resp.Violations)
			}
			fmt.Printf("  now %s; queries refreshed %d, skipped %d\n",
				consistent, res.QueriesRefreshed, res.QueriesSkipped)
			for _, u := range updates {
				q := u.Prepared.Query()
				if q.IsBoolean() {
					fmt.Printf("  %s -> %v\n", q, u.Boolean)
					continue
				}
				var parts []string
				for _, t := range u.Added {
					parts = append(parts, "+"+t.String())
				}
				for _, t := range u.Removed {
					parts = append(parts, "-"+t.String())
				}
				fmt.Printf("  %s -> %s\n", q, strings.Join(parts, " "))
			}
		default:
			return fmt.Errorf("line %d: unknown command %q: want query, insert, or delete", ln+1, verb)
		}
	}
	return nil
}
