// Package session turns one-shot consistent query answering into a
// persistent service primitive. A Session owns a (D, IC) pair — a frozen
// base anchor with a mutable head (relational.Head), the constraint set,
// the maintained per-IC violation lists, the cached repair set with its
// aligned deltas, and a set of prepared standing queries with their
// query.BaseEval plans. Everything engine-specific — the repair-program
// translation, the FD classification, how repairs are enumerated and how
// ad-hoc queries are answered — lives in one backend per engine (see
// backend).
//
// Session.Apply(delta) advances that state across the delta:
// nullsem.ICChecker.Update moves each violation list in O(|Δ|);
// constraint-irrelevant updates rebase the cached repairs verbatim (their
// deltas are provably unchanged — every repair-delta fact mentions a
// constraint predicate, so a repair of the old head ± the update is a
// repair of the new head); constraint-relevant updates drop the whole
// cache, counting the cached repairs whose deltas share a fact with the
// update, and re-enumerate it with the maintained violation lists seeded
// into the search root (repair.Seed), so even this path never re-checks a
// constraint over the whole instance; and each prepared query is
// re-answered by patching its base evaluation along the per-repair deltas
// (on the direct engine, its answers along the update itself), with
// changed-answer diffs pushed to Subscribe callbacks.
//
// One-shot answering is a throwaway session, New(d, set, opts).Answer(q),
// so every engine runs on this machinery whether or not the caller keeps
// the session.
package session

import (
	"context"
	"errors"
	"sort"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/nullsem"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/stable"
)

// Engine selects how repairs are produced.
type Engine uint8

const (
	// EngineSearch uses the violation-driven repair search.
	EngineSearch Engine = iota
	// EngineProgram uses the Definition 9 repair program and its stable
	// models, materializing each repair and evaluating the query on it.
	EngineProgram
	// EngineProgramCautious runs the paper's Section 5 pipeline
	// end-to-end: the query is compiled to rules over the t**-annotated
	// predicates, appended to the repair program, and the consistent
	// answers are the cautious (certain) consequences of the combined
	// program — no repair is ever materialized.
	EngineProgramCautious
	// EngineDirect answers FD-only constraint sets from the repair-less
	// polynomial classification of internal/direct (Laurent–Spyratos): no
	// repair is ever enumerated, and Session.Apply maintains the
	// classification in O(|Δ|). Out-of-scope sets (anything beyond one FD
	// per relation, or classic semantics) fail with *direct.ScopeError.
	EngineDirect
	// EngineAuto routes by constraint class at session construction:
	// FD-only sets under null-aware semantics take EngineDirect, everything
	// else EngineSearch. The session's Options() report the resolved
	// engine.
	EngineAuto
)

func (e Engine) String() string {
	switch e {
	case EngineProgram:
		return "program"
	case EngineProgramCautious:
		return "program-cautious"
	case EngineDirect:
		return "direct"
	case EngineAuto:
		return "auto"
	default:
		return "search"
	}
}

// Options configures consistent query answering.
type Options struct {
	Engine Engine
	// Variant selects the repair-program flavour for EngineProgram.
	// The zero value is repairprog.VariantPaper; NewOptions defaults to
	// the corrected variant, which is the one matching Theorem 4 on all
	// inputs.
	Variant repairprog.Variant
	// Repair configures the search engine. Repair.Seed is owned by the
	// session (it wires its maintained violation lists there); any caller
	// value is ignored.
	Repair repair.Options
	// Stable configures the model enumeration: Stable.MaxCandidates is
	// the work bound.
	Stable stable.Options
	// Ground configures the grounding of the repair program. It has no
	// exported field; the program and cautious backends hand it to their
	// translation as is.
	Ground ground.Options
}

// NewOptions returns the default options: search engine, corrected
// program variant.
func NewOptions() Options {
	return Options{Variant: repairprog.VariantCorrected}
}

// Answer is the result of consistent query answering.
type Answer struct {
	// Tuples are the certain answers (sorted, distinct); nil for boolean
	// queries.
	Tuples []relational.Tuple
	// Boolean is the certain answer of a boolean query.
	Boolean bool
	// NumRepairs is the number of repairs inspected. After a search-engine
	// or cautious short-circuit it is 1: the counterexample is the only
	// candidate established as a repair when the engine stops. The
	// cautious engine never inspects a repair: its count is the product
	// over the ground program's components of the distinct repair pieces
	// their models induce, saturating at math.MaxInt, and a session
	// computes it again after every update that changes the repair
	// program.
	NumRepairs int
	// StatesExplored counts the search states visited when the search
	// engine produced the answer (0 for the program engines). After a
	// short-circuit it is strictly below the full-enumeration count.
	StatesExplored int
	// ShortCircuited reports that the engine stopped at the first
	// counterexample instead of enumerating exhaustively. Only boolean
	// queries short-circuit, and only when the certain answer is no: the
	// search engine stops at the first confirmed-minimal falsifying leaf,
	// EngineProgram at the first stable model whose induced repair
	// falsifies the query, and EngineProgramCautious at the first model of
	// the answer atom's component that lacks it (or at once when no model
	// can hold it) — a stable model is a repair outright (Theorem 4), so
	// no certificate is needed. After an EngineProgram short-circuit
	// NumRepairs counts the distinct repairs seen up to and including the
	// counterexample.
	//
	// NumRepairs, StatesExplored and ShortCircuited are deterministic
	// diagnostics on every engine. A session answering from its cached
	// repair set reports the full-enumeration diagnostics of the run that
	// filled the cache, never a short-circuit.
	ShortCircuited bool
}

// rebaseThreshold is the head drift at which a session re-anchors. It must
// stay below the Instance overlay-flattening threshold (256): once the live
// head flattens to a private engine, clones stop sharing the anchor's
// engine and every Diff against the anchor degrades from O(|Δ|) to a full
// scan. Re-anchoring earlier keeps that path permanently fast at an O(|D|)
// cost amortized over rebaseThreshold updates. Drift is net: edits the
// head undid do not count, and need not, because the overlays of the head,
// the cached repairs and the search states keep at most max(32, live adds)
// tombstones per relation (relational's delta), so undone edits leave them
// nothing that grows with their number.
const rebaseThreshold = 128

// maxConfirmAttempts bounds how many falsifying leaves a boolean search
// answer will try to certify with ConfirmMinimal before falling back to
// plain full enumeration.
const maxConfirmAttempts = 8

// ErrInconsistentUnrepairable reports that an engine produced an empty
// repair set for an inconsistent instance. Proposition 1 guarantees at least
// one repair always exists, so this sentinel signals an engine limitation on
// the given input (e.g. a constraint class outside the engine's scope), not
// a property of the data. API consumers match it with errors.Is.
var ErrInconsistentUnrepairable = errors.New("cqa: empty repair set (Proposition 1 guarantees at least one repair; this indicates an engine limitation on this input)")

// Session is a persistent (D, IC) pair with maintained CQA state. It is
// not safe for concurrent use; a server wraps one session per client (or
// shards) rather than sharing one across goroutines.
type Session struct {
	set  *constraint.Set
	opts Options
	head *relational.Head
	// icPreds are the predicate names mentioned by any constraint
	// (IC bodies and heads plus NNCs). An update touching none of them is
	// constraint-irrelevant: violations and repair deltas are provably
	// unchanged under the null-based semantics.
	icPreds map[string]bool
	// eng is the session's engine, chosen once by New.
	eng backend

	// Maintained violation state (lazy; advanced by Apply once computed).
	checkers []*nullsem.ICChecker
	viols    [][]nullsem.Violation
	violsOK  bool

	// Cached repair set: instances in content-canonical order, deltas
	// Δ(head, repair) aligned.
	repairsOK   bool
	repairs     []*relational.Instance
	deltas      []relational.Delta
	searchStats repair.Stats

	prepared []*Prepared
}

// backend is the engine half of a session: one implementation per engine
// (searchBackend, programBackend, cautiousBackend, directBackend). The
// Session keeps what every engine shares and calls into the backend for
// the rest; New is the only place that picks one.
type backend interface {
	// apply advances engine-owned state across an effective delta; the
	// head has already moved.
	apply(eff relational.Delta)
	// reanchor repoints engine-owned state at the new anchor.
	reanchor()
	// enumerate lists the repairs of the current head into the session's
	// repair cache (Session.fill). Cancellation leaves the cache cold.
	enumerate(ctx context.Context) error
	// plan returns the base evaluation a standing query is re-patched
	// with across the repair cache, or nil when certain answers it (and,
	// on the direct engine, directBackend.patch moves it across each
	// apply).
	plan(q *query.Q) (*query.BaseEval, error)
	// certain returns the consistent answers to q (Definition 8).
	certain(ctx context.Context, q *query.Q) (Answer, error)
	// possible returns the tuples answering q in at least one repair.
	possible(ctx context.Context, q *query.Q) ([]relational.Tuple, error)
}

// New creates a session over d and set. d is frozen and must not be
// mutated by the caller afterwards; all updates go through Apply. State is
// materialized lazily, so a session used for a single cautious query never
// runs the repair search, and vice versa.
func New(d *relational.Instance, set *constraint.Set, opts Options) *Session {
	opts.Repair.Seed = nil
	if opts.Engine == EngineAuto {
		opts.Engine = resolveAuto(set, opts)
	}
	s := &Session{
		set:     set,
		opts:    opts,
		head:    relational.NewHead(d),
		icPreds: map[string]bool{},
	}
	for _, ps := range set.Preds() {
		s.icPreds[ps.Name] = true
	}
	switch opts.Engine {
	case EngineProgram:
		s.eng = &programBackend{s: s}
	case EngineProgramCautious:
		s.eng = &cautiousBackend{programBackend: programBackend{s: s, pruned: true}}
	case EngineDirect:
		s.eng = &directBackend{s: s}
	default:
		s.eng = &searchBackend{s: s}
	}
	return s
}

// Current returns the live instance. Read-only: mutate through Apply.
func (s *Session) Current() *relational.Instance { return s.head.Current() }

// Set returns the session's constraint set.
func (s *Session) Set() *constraint.Set { return s.set }

// Options returns the session's options.
func (s *Session) Options() Options { return s.opts }

// ApplyResult summarizes what one Apply did.
type ApplyResult struct {
	// Applied is the effective delta: the facts whose presence actually
	// changed (no-op inserts/deletes are dropped).
	Applied relational.Delta
	// ConstraintRelevant reports whether the update touched a constraint
	// predicate (always true for effective updates in classic mode, where
	// the irrelevance theorem does not hold — insertion candidates come
	// from the active domain, which any fact can extend).
	ConstraintRelevant bool
	// RepairsSurvived / RepairsInvalidated classify the cached repair set:
	// on a constraint-irrelevant update every cached repair survives with
	// its delta intact; a relevant update drops the whole cache, counts
	// the repairs whose deltas share a fact with the update as
	// invalidated, and counts as survivors the others whose deltas
	// reappear verbatim in the re-enumeration. Both are 0 when no repair
	// cache existed.
	RepairsSurvived, RepairsInvalidated int
	// Reenumerated reports that the update forced a (seeded) re-enumeration
	// of the repair set during this Apply. False when the cache was
	// rebased, dropped for lazy recomputation, or absent.
	Reenumerated bool
	// QueriesRefreshed / QueriesSkipped count the prepared queries that
	// were re-answered vs. skipped because the update could not change
	// their answers (constraint-irrelevant and touching none of the
	// query's predicates).
	QueriesRefreshed, QueriesSkipped int
}

// Apply advances the session across delta. Violation lists move in
// O(|Δ|·cost(IC)) via ICChecker.Update; the repair cache is rebased
// (irrelevant update) or dropped and re-enumerated from the maintained
// violation seed (relevant update); prepared queries whose predicates the
// update cannot reach are skipped, the rest are re-answered by patching
// their base evaluations per repair (on the direct engine, their answers
// along the update), with changed-answer diffs delivered to Subscribe
// callbacks before Apply returns.
func (s *Session) Apply(delta relational.Delta) (ApplyResult, error) {
	return s.ApplyCtx(context.Background(), delta)
}

// ApplyCtx is Apply under a context. Cancellation can interrupt the
// re-enumeration that refreshes prepared queries; the update itself is
// already applied at that point (the head, violation lists, engine state and
// repair cache are all advanced coherently before any enumeration starts),
// so the session stays usable — the interrupted prepared query is marked
// invalid and recomputed from scratch on its next use, and a later
// ApplyCtx/Answer simply redoes the abandoned enumeration.
func (s *Session) ApplyCtx(ctx context.Context, delta relational.Delta) (ApplyResult, error) {
	eff := s.head.Apply(delta)
	res := ApplyResult{Applied: eff}
	if eff.Size() == 0 {
		return res, nil
	}
	relevant := s.touchesConstraints(eff)
	if s.opts.Repair.Mode == repair.Classic {
		// The irrelevance theorem is null-based: classic insertion
		// candidates range over the active domain, which any fact extends.
		relevant = true
	}
	res.ConstraintRelevant = relevant

	// Violations: advance only the checkers whose constraint shares a
	// changed predicate; the rest are untouched by construction.
	if s.violsOK {
		cur := s.head.Current()
		for i, ck := range s.checkers {
			if checkerTouched(ck, eff) {
				s.viols[i] = ck.Update(cur, s.viols[i], eff)
			}
		}
	}

	s.eng.apply(eff)

	// Repair cache.
	var retained []relational.Delta
	if s.repairsOK {
		if !relevant {
			s.rebaseRepairs()
			res.RepairsSurvived = len(s.repairs)
		} else {
			for _, dl := range s.deltas {
				if sharesFact(dl, eff) {
					res.RepairsInvalidated++
				} else {
					retained = append(retained, dl)
				}
			}
			s.dropRepairs()
		}
	}

	if s.head.Drift() > rebaseThreshold {
		if err := s.reanchor(); err != nil {
			return res, err
		}
	}

	// Prepared queries. Refreshing needs the repair set for the
	// search and program engines, so a relevant update re-enumerates here
	// (seeded from the maintained violation lists). An interrupted refresh
	// leaves every query it did not reach invalid too, so that none keeps
	// answers from before this update.
	for i, p := range s.prepared {
		if !relevant && !p.touches(eff) {
			res.QueriesSkipped++
			continue
		}
		wasEmpty := !s.repairsOK
		if err := s.refresh(ctx, p, eff); err != nil {
			for _, rest := range s.prepared[i+1:] {
				if relevant || rest.touches(eff) {
					rest.valid = false
				}
			}
			return res, err
		}
		res.QueriesRefreshed++
		if wasEmpty && s.repairsOK {
			res.Reenumerated = true
		}
	}
	if retained != nil && s.repairsOK {
		res.RepairsSurvived = s.countRetained(retained)
	}
	return res, nil
}

// touchesConstraints reports whether any changed fact belongs to a
// constraint predicate.
func (s *Session) touchesConstraints(eff relational.Delta) bool {
	for _, f := range eff.Removed {
		if s.icPreds[f.Pred] {
			return true
		}
	}
	for _, f := range eff.Added {
		if s.icPreds[f.Pred] {
			return true
		}
	}
	return false
}

func checkerTouched(ck *nullsem.ICChecker, eff relational.Delta) bool {
	for _, f := range eff.Removed {
		if ck.SharesPred(f.Pred) {
			return true
		}
	}
	for _, f := range eff.Added {
		if ck.SharesPred(f.Pred) {
			return true
		}
	}
	return false
}

// ensureViolations materializes the per-IC violation lists from the
// current head; Apply keeps them maintained afterwards.
func (s *Session) ensureViolations() {
	if s.violsOK {
		return
	}
	if s.checkers == nil {
		sem := nullsem.NullAware
		if s.opts.Repair.Mode == repair.Classic {
			sem = nullsem.ClassicFO
		}
		s.checkers = make([]*nullsem.ICChecker, len(s.set.ICs))
		for i, ic := range s.set.ICs {
			s.checkers[i] = nullsem.NewICChecker(ic, sem)
		}
	}
	cur := s.head.Current()
	s.viols = make([][]nullsem.Violation, len(s.checkers))
	for i, ck := range s.checkers {
		s.viols[i] = ck.Violations(cur)
	}
	s.violsOK = true
}

// Violations returns the maintained IC violation lists flattened in
// constraint order. Within one IC the order reflects the update history
// (survivors first, then violations seeded by later deltas), so it equals
// a scratch check's list as a set, not necessarily as a sequence. The
// slice is read-only. The first call builds the lists, and Apply maintains
// them from then on.
func (s *Session) Violations() []nullsem.Violation {
	s.ensureViolations()
	var out []nullsem.Violation
	for _, vs := range s.viols {
		out = append(out, vs...)
	}
	return out
}

// ViolationCount returns len(Violations()). A direct session answers it
// from the FD classification in O(1) and builds no lists; any other
// session sums its maintained lists without flattening them.
func (s *Session) ViolationCount() int {
	if e := s.classification(); e != nil {
		return e.ViolationCount()
	}
	s.ensureViolations()
	n := 0
	for _, vs := range s.viols {
		n += len(vs)
	}
	return n
}

// Consistent reports whether the current head satisfies the constraint
// set. A direct session reads the FD classification, which covers the
// whole set (it holds no NOT NULL-constraint); any other session reads its
// maintained violation lists plus an indexed NNC probe.
func (s *Session) Consistent() bool {
	if e := s.classification(); e != nil {
		return e.Consistent()
	}
	s.ensureViolations()
	for _, vs := range s.viols {
		if len(vs) > 0 {
			return false
		}
	}
	cur := s.head.Current()
	for _, n := range s.set.NNCs {
		if _, found := nullsem.FirstViolationNNC(cur, n); found {
			return false
		}
	}
	return true
}

// seed packages the maintained violation lists for the search root.
func (s *Session) seed() *repair.Seed {
	s.ensureViolations()
	return &repair.Seed{Viols: s.viols}
}

// ensureRepairs fills the repair cache with the backend's enumeration:
// the seeded search for the search and direct engines, the stable models
// of the cached translation for the program engines. An empty result is
// cached as empty; answer paths enforce Proposition 1. Cancellation
// mid-fill leaves the cache untouched (still cold) — partial enumerations
// are never cached, so a later call recomputes cleanly.
func (s *Session) ensureRepairs(ctx context.Context) error {
	if s.repairsOK {
		return nil
	}
	return s.eng.enumerate(ctx)
}

// fill installs a completed enumeration as the repair cache: instances in
// content-canonical order with their aligned deltas.
func (s *Session) fill(repairs []*relational.Instance, deltas []relational.Delta, stats repair.Stats) {
	s.repairs, s.deltas, s.searchStats = repairs, deltas, stats
	s.repairsOK = true
}

// Repairs returns the session's repair set in content-canonical order.
// The instances are shared with the cache: read-only.
func (s *Session) Repairs() ([]*relational.Instance, error) {
	return s.RepairsCtx(context.Background())
}

// RepairsCtx is Repairs under a context (cancellation aborts a cold cache
// fill; see ApplyCtx for the non-poisoning contract).
func (s *Session) RepairsCtx(ctx context.Context) ([]*relational.Instance, error) {
	if err := s.ensureRepairs(ctx); err != nil {
		return nil, err
	}
	return append([]*relational.Instance(nil), s.repairs...), nil
}

// Deltas returns Δ(current, repair) aligned with Repairs(). Read-only.
func (s *Session) Deltas() ([]relational.Delta, error) {
	return s.DeltasCtx(context.Background())
}

// DeltasCtx is Deltas under a context.
func (s *Session) DeltasCtx(ctx context.Context) ([]relational.Delta, error) {
	if err := s.ensureRepairs(ctx); err != nil {
		return nil, err
	}
	return append([]relational.Delta(nil), s.deltas...), nil
}

func (s *Session) dropRepairs() {
	s.repairsOK = false
	s.repairs, s.deltas = nil, nil
	s.searchStats = repair.Stats{}
}

// sharesFact reports whether a cached repair delta and an effective
// update have a fact in common. Both are deltas from the pre-update head,
// so a shared fact sits in the same half of each: removed facts are in
// that head and added facts are not.
func sharesFact(dl, eff relational.Delta) bool {
	return meet(dl.Removed, eff.Removed) || meet(dl.Added, eff.Added)
}

// meet reports whether two Compare-sorted fact lists share a fact.
func meet(a, b []relational.Fact) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return true
		}
	}
	return false
}

// countRetained reports how many retained candidate deltas reappeared
// verbatim in the fresh repair set.
func (s *Session) countRetained(retained []relational.Delta) int {
	have := relational.NewDeltaSet()
	for _, dl := range s.deltas {
		have.Add(dl)
	}
	n := 0
	for _, dl := range retained {
		if have.Has(dl) {
			n++
		}
	}
	return n
}

// rebaseRepairs rebuilds the cached repair instances over the advanced
// head after a constraint-irrelevant update: every delta is provably still
// exactly a repair delta (each of its facts mentions a constraint
// predicate, which the update did not touch), so each instance is the new
// head ± the same delta. Canonical order is re-established — the changed
// passthrough facts participate in Instance.Compare.
func (s *Session) rebaseRepairs() {
	cur := s.head.Current()
	for i := range s.repairs {
		r := cur.Clone()
		for _, f := range s.deltas[i].Removed {
			r.Delete(f)
		}
		for _, f := range s.deltas[i].Added {
			r.Insert(f)
		}
		s.repairs[i] = r
	}
	idx := make([]int, len(s.repairs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return s.repairs[idx[a]].Compare(s.repairs[idx[b]]) < 0
	})
	repairs := make([]*relational.Instance, len(idx))
	deltas := make([]relational.Delta, len(idx))
	for at, i := range idx {
		repairs[at] = s.repairs[i]
		deltas[at] = s.deltas[i]
	}
	s.repairs, s.deltas = repairs, deltas
}

// reanchor makes the current head the new anchor (see rebaseThreshold) and
// re-bases everything anchored to the old one: prepared base evaluations
// are rebuilt, cached repair instances are recloned from the new anchor's
// engine, and the backend repoints its own state.
func (s *Session) reanchor() error {
	s.head.Rebase()
	if s.repairsOK {
		s.rebaseRepairs()
	}
	s.eng.reanchor()
	for _, p := range s.prepared {
		if p.be != nil {
			be, err := query.NewBaseEval(s.head.Anchor(), p.q)
			if err != nil {
				return err
			}
			p.be = be
		}
	}
	return nil
}

// Prepared is a standing query registered with Prepare: the session keeps
// its base evaluation plan and current certain answers, re-patching them
// on every Apply that could change them.
type Prepared struct {
	q      *query.Q
	preds  map[string]bool
	be     *query.BaseEval // nil when the backend answers the query itself
	isBool bool

	tuples  []relational.Tuple
	boolAns bool
	valid   bool

	subs []func(QueryUpdate)
}

// QueryUpdate is pushed to subscribers when a prepared query's certain
// answers change across an Apply.
type QueryUpdate struct {
	Prepared *Prepared
	// Added and Removed are the certain-answer tuples that appeared and
	// disappeared (sorted, for non-boolean queries).
	Added, Removed []relational.Tuple
	// Boolean is the new verdict of a boolean query; BooleanChanged
	// reports that it flipped.
	Boolean        bool
	BooleanChanged bool
}

// Query returns the prepared query.
func (p *Prepared) Query() *query.Q { return p.q }

// Answers returns the current certain answers (read-only, sorted); nil
// for boolean queries.
func (p *Prepared) Answers() []relational.Tuple { return p.tuples }

// Boolean returns the current certain verdict of a boolean query.
func (p *Prepared) Boolean() bool { return p.boolAns }

// Valid reports whether the stored answers reflect the session's current
// head. False after a refresh was interrupted (e.g. a cancelled ApplyCtx);
// the next successful Apply recomputes and re-validates them.
func (p *Prepared) Valid() bool { return p.valid }

// Subscribe registers fn to be called (synchronously, inside Apply) each
// time the prepared query's answers change.
func (p *Prepared) Subscribe(fn func(QueryUpdate)) { p.subs = append(p.subs, fn) }

func (p *Prepared) touches(eff relational.Delta) bool {
	for _, f := range eff.Removed {
		if p.preds[f.Pred] {
			return true
		}
	}
	for _, f := range eff.Added {
		if p.preds[f.Pred] {
			return true
		}
	}
	return false
}

// Prepare registers q as a standing query and computes its initial
// answers. The plan (query.BaseEval, anchored at the frozen anchor) is
// kept for the session's lifetime; Apply re-patches the answers.
func (s *Session) Prepare(q *query.Q) (*Prepared, error) {
	return s.PrepareCtx(context.Background(), q)
}

// PrepareCtx is Prepare under a context: cancellation aborts the initial
// answer computation and the query is not registered.
func (s *Session) PrepareCtx(ctx context.Context, q *query.Q) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{q: q, preds: map[string]bool{}, isBool: q.IsBoolean()}
	for _, name := range q.Preds() {
		p.preds[name] = true
	}
	be, err := s.eng.plan(q)
	if err != nil {
		return nil, err
	}
	p.be = be
	if err := s.compute(ctx, p); err != nil {
		return nil, err
	}
	s.prepared = append(s.prepared, p)
	return p, nil
}

// compute fills p's answers from the session's current state: a planned
// query is re-patched across the repair cache, any other is answered by
// the backend.
func (s *Session) compute(ctx context.Context, p *Prepared) error {
	var (
		ans Answer
		err error
	)
	if p.be != nil {
		ans, err = s.cachedCertain(ctx, p.be, p.isBool)
	} else {
		ans, err = s.eng.certain(ctx, p.q)
	}
	if err != nil {
		return err
	}
	p.tuples, p.boolAns, p.valid = ans.Tuples, ans.Boolean, true
	return nil
}

// refresh moves p across the effective delta eff and notifies subscribers
// of any change. The direct backend patches valid answers along eff and
// reports the exact diff; otherwise p is recomputed and diffed against its
// old answers. On error (cancellation included) p is marked invalid: its
// retained answers are stale against the advanced head, and the next
// refresh recomputes and notifies unconditionally.
func (s *Session) refresh(ctx context.Context, p *Prepared, eff relational.Delta) error {
	oldTuples, oldBool, wasValid := p.tuples, p.boolAns, p.valid
	var (
		added, removed []relational.Tuple
		err            error
	)
	if b, ok := s.eng.(*directBackend); ok && wasValid {
		added, removed, err = b.patch(ctx, p, eff)
	} else if err = s.compute(ctx, p); err == nil && !p.isBool && len(p.subs) > 0 {
		added, removed = diffSorted(oldTuples, p.tuples)
	}
	if err != nil {
		p.valid = false
		return err
	}
	if len(p.subs) == 0 {
		return nil
	}
	var upd QueryUpdate
	changed := false
	if p.isBool {
		if !wasValid || oldBool != p.boolAns {
			upd.Boolean, upd.BooleanChanged = p.boolAns, true
			changed = true
		}
	} else if !wasValid || len(added) > 0 || len(removed) > 0 {
		upd.Added, upd.Removed = added, removed
		changed = true
	}
	if changed {
		upd.Prepared = p
		for _, fn := range p.subs {
			fn(upd)
		}
	}
	return nil
}

// diffSorted compares two Compare-sorted distinct tuple lists and returns
// what newer gained and lost relative to older.
func diffSorted(older, newer []relational.Tuple) (added, removed []relational.Tuple) {
	i, j := 0, 0
	for i < len(older) && j < len(newer) {
		switch c := older[i].Compare(newer[j]); {
		case c < 0:
			removed = append(removed, older[i])
			i++
		case c > 0:
			added = append(added, newer[j])
			j++
		default:
			i++
			j++
		}
	}
	removed = append(removed, older[i:]...)
	added = append(added, newer[j:]...)
	return added, removed
}
