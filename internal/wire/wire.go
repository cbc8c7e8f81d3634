// Package wire defines the stable JSON schema shared by the cqad daemon and
// the cqa CLI: instances, constraint sets, queries, answers, and update
// results all have one canonical wire form, so a scripted HTTP exchange and
// an in-process run serialize to byte-identical documents.
//
// Two representation choices keep the schema both stable and readable:
//
//   - Database constants map to JSON natives: null is JSON null, integer
//     constants are JSON numbers, string constants are JSON strings. The
//     mapping is injective (the string "42" and the integer 42 stay
//     distinct) and integers decode through strconv.ParseInt, so the full
//     int64 range survives a round trip.
//   - Constraints and queries travel as source text in the syntax of
//     internal/parser, the one concrete syntax the repo already has. The
//     renderers here emit canonical text (string constants always quoted,
//     existential quantification left implicit) that reparses to an
//     equivalent set; auto-assigned constraint names (ic1, nnc1, ...) are
//     positional and therefore survive, custom names do not.
//
// Every type round-trips: Marshal∘Unmarshal is the identity on the wire
// form, and the From*/To* conversions invert each other up to canonical
// ordering (instances serialize their facts sorted).
package wire

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/constraint"
	"repro/internal/nullsem"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/term"
	"repro/internal/value"
)

// Value is the wire form of one database constant. It marshals to a JSON
// native: null, an integer number, or a string.
type Value struct {
	V value.V
}

// MarshalJSON renders the constant as its JSON native.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.V.Kind() {
	case value.KindNull:
		return []byte("null"), nil
	case value.KindInt:
		i, _ := v.V.AsInt()
		return strconv.AppendInt(nil, i, 10), nil
	default:
		s, _ := v.V.AsStr()
		return json.Marshal(s)
	}
}

// UnmarshalJSON decodes a JSON native back into a constant. Numbers must be
// integers (the domain U has no floats); anything but null, an integer, or
// a string is rejected. encoding/json hands over exactly one value's bytes,
// so the first byte tells the kind.
func (v *Value) UnmarshalJSON(b []byte) error {
	switch {
	case string(b) == "null":
		v.V = value.Null()
	case len(b) > 0 && b[0] == '"':
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v.V = value.Str(s)
	case len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9'):
		i, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			return fmt.Errorf("wire: constant %s is not a 64-bit integer", b)
		}
		v.V = value.Int(i)
	default:
		return fmt.Errorf("wire: constant must be null, an integer, or a string (got %s)", b)
	}
	return nil
}

// Tuple conversions.

// FromTuple converts one answer tuple.
func FromTuple(t relational.Tuple) []Value {
	if t == nil {
		return nil
	}
	out := make([]Value, len(t))
	for i, v := range t {
		out[i] = Value{v}
	}
	return out
}

// ToTuple inverts FromTuple.
func ToTuple(t []Value) relational.Tuple {
	if t == nil {
		return nil
	}
	out := make(relational.Tuple, len(t))
	for i, v := range t {
		out[i] = v.V
	}
	return out
}

// FromTuples converts a sorted answer-tuple list.
func FromTuples(ts []relational.Tuple) [][]Value {
	if ts == nil {
		return nil
	}
	out := make([][]Value, len(ts))
	for i, t := range ts {
		out[i] = FromTuple(t)
	}
	return out
}

// ToTuples inverts FromTuples.
func ToTuples(ts [][]Value) []relational.Tuple {
	if ts == nil {
		return nil
	}
	out := make([]relational.Tuple, len(ts))
	for i, t := range ts {
		out[i] = ToTuple(t)
	}
	return out
}

// Fact is the wire form of one ground atom.
type Fact struct {
	Pred string  `json:"pred"`
	Args []Value `json:"args,omitempty"`
}

// FromFact converts a ground atom.
func FromFact(f relational.Fact) Fact {
	return Fact{Pred: f.Pred, Args: FromTuple(f.Args)}
}

// ToFact inverts FromFact.
func (f Fact) ToFact() relational.Fact {
	return relational.Fact{Pred: f.Pred, Args: ToTuple(f.Args)}
}

// Instance is the wire form of a database instance: its facts in canonical
// (Compare) order.
type Instance struct {
	Facts []Fact `json:"facts"`
}

// FromInstance serializes d with its facts sorted, so equal instances have
// equal wire forms regardless of construction history.
func FromInstance(d *relational.Instance) Instance {
	facts := d.Facts()
	out := Instance{Facts: make([]Fact, len(facts))}
	for i, f := range facts {
		out.Facts[i] = FromFact(f)
	}
	return out
}

// ToInstance inverts FromInstance (set semantics: duplicate facts collapse).
func (in Instance) ToInstance() *relational.Instance {
	d := relational.NewInstance()
	for _, f := range in.Facts {
		d.Insert(f.ToFact())
	}
	return d
}

// Delta is the wire form of a symmetric difference.
type Delta struct {
	Added   []Fact `json:"added,omitempty"`
	Removed []Fact `json:"removed,omitempty"`
}

// FromDelta converts a delta.
func FromDelta(dl relational.Delta) Delta {
	out := Delta{}
	for _, f := range dl.Added {
		out.Added = append(out.Added, FromFact(f))
	}
	for _, f := range dl.Removed {
		out.Removed = append(out.Removed, FromFact(f))
	}
	return out
}

// ToDelta inverts FromDelta.
func (dl Delta) ToDelta() relational.Delta {
	out := relational.Delta{}
	for _, f := range dl.Added {
		out.Added = append(out.Added, f.ToFact())
	}
	for _, f := range dl.Removed {
		out.Removed = append(out.Removed, f.ToFact())
	}
	return out
}

// ConstraintSet carries a constraint set as canonical source text in the
// syntax of internal/parser.
type ConstraintSet struct {
	Source string `json:"source"`
}

// FromConstraints renders set canonically: one constraint per line, ICs
// first then NNCs, string constants quoted, existentials implicit.
func FromConstraints(set *constraint.Set) ConstraintSet {
	var b strings.Builder
	for _, ic := range set.ICs {
		renderIC(&b, ic)
	}
	for _, n := range set.NNCs {
		renderNNC(&b, n)
	}
	return ConstraintSet{Source: b.String()}
}

// ToSet parses the carried source.
func (cs ConstraintSet) ToSet() (*constraint.Set, error) {
	return parser.Constraints(cs.Source)
}

// Query carries a query as canonical source text in the syntax of
// internal/parser.
type Query struct {
	Source string `json:"source"`
}

// FromQuery renders q canonically. Unlike query.Q.String (a display form)
// the canonical text always quotes string constants, so constants like
// "two words" reparse as the constants they are.
func FromQuery(q *query.Q) Query {
	var b strings.Builder
	head := q.Name
	if head == "" {
		head = "q"
	}
	for i, d := range q.Disjuncts {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(head)
		b.WriteByte('(')
		b.WriteString(strings.Join(q.Head, ", "))
		b.WriteByte(')')
		if len(d.Lits) == 0 && len(d.Builtins) == 0 {
			// The grammar allows an empty (trivially true) body, but only
			// without the ":-".
			b.WriteByte('.')
			continue
		}
		b.WriteString(" :- ")
		first := true
		for _, l := range d.Lits {
			if !first {
				b.WriteString(", ")
			}
			first = false
			if l.Neg {
				b.WriteString("not ")
			}
			renderAtom(&b, l.Atom)
		}
		for _, bi := range d.Builtins {
			if !first {
				b.WriteString(", ")
			}
			first = false
			renderBuiltin(&b, bi)
		}
		b.WriteByte('.')
	}
	return Query{Source: b.String()}
}

// ToQuery parses the carried source.
func (wq Query) ToQuery() (*query.Q, error) {
	return parser.Query(wq.Source)
}

// Answer is the wire form of session.Answer.
type Answer struct {
	// Tuples are the certain answers in canonical order; absent for
	// boolean queries.
	Tuples [][]Value `json:"tuples,omitempty"`
	// Boolean is the certain verdict of a boolean query.
	Boolean bool `json:"boolean"`
	// NumRepairs, StatesExplored and ShortCircuited carry the engine
	// diagnostics (see session.Answer for their exact semantics).
	NumRepairs     int  `json:"num_repairs"`
	StatesExplored int  `json:"states_explored,omitempty"`
	ShortCircuited bool `json:"short_circuited,omitempty"`
}

// FromAnswer converts an answer.
func FromAnswer(a session.Answer) Answer {
	return Answer{
		Tuples:         FromTuples(a.Tuples),
		Boolean:        a.Boolean,
		NumRepairs:     a.NumRepairs,
		StatesExplored: a.StatesExplored,
		ShortCircuited: a.ShortCircuited,
	}
}

// ToAnswer inverts FromAnswer.
func (a Answer) ToAnswer() session.Answer {
	return session.Answer{
		Tuples:         ToTuples(a.Tuples),
		Boolean:        a.Boolean,
		NumRepairs:     a.NumRepairs,
		StatesExplored: a.StatesExplored,
		ShortCircuited: a.ShortCircuited,
	}
}

// ApplyResult is the wire form of session.ApplyResult.
type ApplyResult struct {
	Applied            Delta `json:"applied"`
	ConstraintRelevant bool  `json:"constraint_relevant"`
	RepairsSurvived    int   `json:"repairs_survived,omitempty"`
	RepairsInvalidated int   `json:"repairs_invalidated,omitempty"`
	Reenumerated       bool  `json:"reenumerated,omitempty"`
	QueriesRefreshed   int   `json:"queries_refreshed,omitempty"`
	QueriesSkipped     int   `json:"queries_skipped,omitempty"`
}

// FromApplyResult converts an update summary.
func FromApplyResult(r session.ApplyResult) ApplyResult {
	return ApplyResult{
		Applied:            FromDelta(r.Applied),
		ConstraintRelevant: r.ConstraintRelevant,
		RepairsSurvived:    r.RepairsSurvived,
		RepairsInvalidated: r.RepairsInvalidated,
		Reenumerated:       r.Reenumerated,
		QueriesRefreshed:   r.QueriesRefreshed,
		QueriesSkipped:     r.QueriesSkipped,
	}
}

// ToApplyResult inverts FromApplyResult.
func (r ApplyResult) ToApplyResult() session.ApplyResult {
	return session.ApplyResult{
		Applied:            r.Applied.ToDelta(),
		ConstraintRelevant: r.ConstraintRelevant,
		RepairsSurvived:    r.RepairsSurvived,
		RepairsInvalidated: r.RepairsInvalidated,
		Reenumerated:       r.Reenumerated,
		QueriesRefreshed:   r.QueriesRefreshed,
		QueriesSkipped:     r.QueriesSkipped,
	}
}

// QueryUpdate is the wire form of a changed-answer diff pushed for one
// standing query (session.QueryUpdate), keyed by the query's canonical text.
type QueryUpdate struct {
	Query          string    `json:"query"`
	Added          [][]Value `json:"added,omitempty"`
	Removed        [][]Value `json:"removed,omitempty"`
	Boolean        bool      `json:"boolean,omitempty"`
	BooleanChanged bool      `json:"boolean_changed,omitempty"`
}

// FromQueryUpdate converts a subscription diff.
func FromQueryUpdate(u session.QueryUpdate) QueryUpdate {
	return QueryUpdate{
		Query:          u.Prepared.Query().String(),
		Added:          FromTuples(u.Added),
		Removed:        FromTuples(u.Removed),
		Boolean:        u.Boolean,
		BooleanChanged: u.BooleanChanged,
	}
}

// AnswerResponse is the shared answer envelope: the canonical query text
// plus its consistent answer. The daemon's query endpoint and cqa's -json
// mode emit this exact document, which is what makes their outputs
// byte-comparable.
type AnswerResponse struct {
	Query  string `json:"query"`
	Answer Answer `json:"answer"`
	// Semantics is set to "possible" for brave-semantics answers; absent
	// (certain semantics) otherwise.
	Semantics string `json:"semantics,omitempty"`
	// Stale marks a standing-query snapshot whose refresh was interrupted
	// (e.g. a cancelled apply); the next successful apply revalidates it.
	Stale bool `json:"stale,omitempty"`
}

// ApplyResponse is the shared update envelope: the update summary, the
// post-update consistency verdict, and the changed-answer diffs of every
// standing query the update affected (in registration order).
type ApplyResponse struct {
	Result     ApplyResult   `json:"result"`
	Consistent bool          `json:"consistent"`
	Violations int           `json:"violations,omitempty"`
	Updates    []QueryUpdate `json:"updates,omitempty"`
}

// NewApplyResponse assembles the update envelope of an apply on s. The
// violation count covers the whole constraint set: the maintained IC
// violations plus, per NOT NULL-constraint, the facts with a null in its
// column. updates are the changed-answer diffs of the standing queries, in
// registration order.
func NewApplyResponse(s *session.Session, res session.ApplyResult, updates []session.QueryUpdate) ApplyResponse {
	resp := ApplyResponse{Result: FromApplyResult(res), Consistent: s.Consistent()}
	if !resp.Consistent {
		resp.Violations = len(s.Violations())
		cur := s.Current()
		for _, n := range s.Set().NNCs {
			resp.Violations += len(nullsem.CheckNNC(cur, n))
		}
	}
	for _, u := range updates {
		resp.Updates = append(resp.Updates, FromQueryUpdate(u))
	}
	return resp
}

// PreparedResponse serializes a standing query's maintained state with zero
// engine diagnostics, since a patched answer inspects no new repairs.
func PreparedResponse(p *session.Prepared) AnswerResponse {
	q := p.Query()
	ans := Answer{Boolean: p.Boolean()}
	if !q.IsBoolean() {
		ans.Tuples = FromTuples(p.Answers())
	}
	return AnswerResponse{Query: q.String(), Answer: ans, Stale: !p.Valid()}
}

// --- canonical constraint rendering ------------------------------------------

// renderTerm writes a term in parser syntax. Unlike term.T.String it always
// quotes string constants, so constants like "C15" or "two words" reparse as
// the constants they are rather than as variables or syntax errors.
// Variables are emitted verbatim; a set that came from the parser always
// has parser-valid (upper-case) variable names.
func renderTerm(b *strings.Builder, t term.T) {
	if t.IsVar() {
		b.WriteString(t.Var)
		return
	}
	switch t.Const.Kind() {
	case value.KindNull:
		b.WriteString("null")
	case value.KindInt:
		i, _ := t.Const.AsInt()
		b.WriteString(strconv.FormatInt(i, 10))
	default:
		s, _ := t.Const.AsStr()
		b.WriteString(strconv.Quote(s))
	}
}

func renderAtom(b *strings.Builder, a term.Atom) {
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		renderTerm(b, t)
	}
	b.WriteByte(')')
}

func renderBuiltin(b *strings.Builder, bi term.Builtin) {
	renderTerm(b, bi.L)
	b.WriteByte(' ')
	b.WriteString(bi.Op.String())
	b.WriteByte(' ')
	renderTerm(b, bi.R)
	switch {
	case bi.Offset > 0:
		fmt.Fprintf(b, " + %d", bi.Offset)
	case bi.Offset < 0:
		fmt.Fprintf(b, " - %d", -bi.Offset)
	}
}

func renderIC(b *strings.Builder, ic *constraint.IC) {
	for i, a := range ic.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		renderAtom(b, a)
	}
	b.WriteString(" -> ")
	if ic.IsDenial() {
		b.WriteString("false.\n")
		return
	}
	first := true
	for _, a := range ic.Head {
		if !first {
			b.WriteString(" | ")
		}
		first = false
		renderAtom(b, a)
	}
	for _, bi := range ic.Phi {
		if !first {
			b.WriteString(" | ")
		}
		first = false
		renderBuiltin(b, bi)
	}
	b.WriteString(".\n")
}

func renderNNC(b *strings.Builder, n *constraint.NNC) {
	b.WriteString(n.Pred)
	b.WriteByte('(')
	for i := 0; i < n.Arity; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "X%d", i+1)
	}
	fmt.Fprintf(b, "), isnull(X%d) -> false.\n", n.Pos+1)
}
