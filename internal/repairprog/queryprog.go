package repairprog

import (
	"fmt"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/term"
)

// This file implements the query side of Section 5: consistent query
// answering as cautious reasoning over the stable models of the repair
// program extended with query rules. A query atom P(t̄) is evaluated in a
// repair D_M through the t**-annotated version of P; predicates the repair
// program does not annotate (possible with pruning, see prune.go) are read
// from their base facts, which every stable model preserves.

// AnswerPred returns the head predicate of the query rules: q_ans, or a
// suffixed name when D or IC has a relation called q_ans.
func (tr *Translation) AnswerPred() string { return tr.answer }

// QueryRules translates a safe query into logic rules over the program's
// annotated predicates, with head predicate AnswerPred. A query atom naming
// a generated predicate reads the empty relation of that name — D and IC
// have none — so a disjunct with such a positive literal derives nothing
// and is left out, and such a negated literal always holds and is dropped.
func (tr *Translation) QueryRules(q *query.Q) ([]logic.Rule, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	head := term.Atom{Pred: tr.answer}
	for _, v := range q.Head {
		head.Args = append(head.Args, term.V(v))
	}
	var rules []logic.Rule
disjuncts:
	for _, disj := range q.Disjuncts {
		r := logic.Rule{Head: []term.Atom{head}}
		for _, lit := range disj.Lits {
			if tr.generated[lit.Atom.Pred] {
				if lit.Neg {
					continue // negates an empty relation: always true
				}
				continue disjuncts // reads an empty relation: never true
			}
			atom := tr.repairedAtom(lit.Atom)
			if lit.Neg {
				r.Neg = append(r.Neg, atom)
			} else {
				r.Pos = append(r.Pos, atom)
			}
		}
		r.Builtins = append(r.Builtins, disj.Builtins...)
		if !r.Safe() {
			return nil, fmt.Errorf("repairprog: query disjunct %s grounds to an unsafe rule", disj)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// repairedAtom maps a query atom onto the repaired database: the
// t**-annotated predicate when the program annotates it, the base predicate
// otherwise.
func (tr *Translation) repairedAtom(a term.Atom) term.Atom {
	if _, ok := tr.annOf[a.Pred]; ok {
		return tr.annAtom(a, TSS)
	}
	return a.Clone()
}

// annotates reports whether the program carries rules 5–7 for the
// predicate.
func (tr *Translation) annotates(pred string) bool {
	return tr.annotated == nil || tr.annotated[pred]
}

// GroundWithQuery returns the ground program of Π(D, IC) ∪ Π(q): the
// base grounding (BaseGrounding) extended with just the query rules, so
// the per-query cost is grounding a handful of rules over the retained
// possible-set snapshot instead of re-grounding the whole repair program.
// The result equals a monolithic grounding of WithQuery(q), byte for byte
// until a Rebase changes the base, and up to atom numbering and rule order
// after: the answer predicate is a generated name, so the base never holds
// it. Safe for concurrent use between Rebases: queries extend one shared
// frozen base.
func (tr *Translation) GroundWithQuery(q *query.Q) (*ground.Program, error) {
	rules, err := tr.QueryRules(q)
	if err != nil {
		return nil, err
	}
	base, err := tr.BaseGrounding()
	if err != nil {
		return nil, err
	}
	return base.Extend(rules)
}

// WithQuery returns a copy of the repair program extended with the query
// rules for q.
func (tr *Translation) WithQuery(q *query.Q) (*logic.Program, error) {
	rules, err := tr.QueryRules(q)
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	prog := tr.program()
	p := &logic.Program{
		Facts: append([]term.Atom(nil), prog.Facts...),
		Rules: append(append([]logic.Rule(nil), prog.Rules...), rules...),
	}
	tr.mu.Unlock()
	return p, nil
}
