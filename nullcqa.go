package nullcqa

import (
	"context"

	"repro/internal/constraint"
	"repro/internal/depgraph"
	"repro/internal/direct"
	"repro/internal/engine"
	"repro/internal/nullsem"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/session"
	"repro/internal/stable"
	"repro/internal/value"
)

// The facade is session-first: NewSession is the primary entry point and
// the ...Ctx one-shots are adapters over a throwaway session. Options
// structs are the single configuration path — there are no other knobs —
// and every long-running entry point takes a context.Context whose
// cancellation aborts the enumeration with ctx.Err().

// Core data types, re-exported for API clients.
type (
	// Value is a database constant; the zero value is null.
	Value = value.V
	// Tuple is a sequence of constants.
	Tuple = relational.Tuple
	// Fact is a ground database atom.
	Fact = relational.Fact
	// Instance is a finite database instance (a set of facts).
	Instance = relational.Instance
	// Delta is a symmetric difference Δ(D, D′).
	Delta = relational.Delta
	// IC is an integrity constraint of the paper's form (1).
	IC = constraint.IC
	// NNC is a NOT NULL-constraint (form (5)).
	NNC = constraint.NNC
	// ConstraintSet is a finite set of ICs and NNCs.
	ConstraintSet = constraint.Set
	// Query is a safe union of conjunctive queries with negation.
	Query = query.Q
	// Answer is the result of consistent query answering.
	Answer = session.Answer
	// RepairResult is the outcome of repair enumeration.
	RepairResult = repair.Result
	// Semantics selects an IC-satisfaction semantics.
	Semantics = nullsem.Semantics
	// ViolationReport lists all constraint violations of an instance.
	ViolationReport = nullsem.Report
	// RepairProgram is a generated Definition 9 program.
	RepairProgram = repairprog.Translation
	// ConstraintAnalysis classifies a constraint set for engine routing
	// (FD-only sets qualify for EngineDirect).
	ConstraintAnalysis = constraint.Analysis
	// EngineSpec describes one registered engine name with its
	// capabilities.
	EngineSpec = engine.Spec
)

// Typed errors. Long-running entry points fail with these instead of
// anonymous fmt.Errorf strings: match sentinels with errors.Is and
// *ParseError with errors.As. A canceled context surfaces as ctx.Err()
// (context.Canceled or context.DeadlineExceeded), also via errors.Is.
type (
	// ParseError reports a syntax error with its 1-based line and column.
	// Every Parse* function returns a *ParseError on bad input.
	ParseError = parser.ParseError
)

var (
	// ErrStateLimit: a repair search exceeded RepairOptions.MaxStates.
	ErrStateLimit = repair.ErrStateLimit
	// ErrConflictingSet: the constraint set has conflicting NOT
	// NULL-constraints (Example 20); use RepairsDCtx.
	ErrConflictingSet = repair.ErrConflictingSet
	// ErrCandidateLimit: a stable-model enumeration exceeded
	// StableOptions.MaxCandidates.
	ErrCandidateLimit = stable.ErrCandidateLimit
	// ErrInconsistentUnrepairable: an engine produced an empty repair set
	// on an inconsistent instance (Proposition 1 guarantees at least one
	// repair, so this indicates an engine limitation on the input).
	ErrInconsistentUnrepairable = session.ErrInconsistentUnrepairable
	// ErrDirectScope: EngineDirect was asked to handle a constraint set
	// outside its FD-only scope (or classic repair semantics). The full
	// reason travels as a *DirectScopeError.
	ErrDirectScope = direct.ErrScope
)

// DirectScopeError carries why a constraint set falls outside the direct
// engine's scope; it wraps ErrDirectScope.
type DirectScopeError = direct.ScopeError

// Options structs — the single configuration path.
type (
	// CQAOptions configures consistent query answering and sessions.
	// Engine selects the pipeline; each engine reads its own section and
	// ignores the rest:
	//
	//   - EngineSearch reads Repair (Mode, MaxStates; Repair.Seed is
	//     session-owned and any caller value is ignored).
	//   - EngineProgram reads Variant and Stable (MaxCandidates).
	//   - EngineProgramCautious reads the same fields as EngineProgram.
	//   - EngineDirect reads Repair.Mode only (classic mode is out of its
	//     scope); Session.Repairs on a direct session runs the search and
	//     reads Repair like EngineSearch.
	CQAOptions = session.Options
	// RepairOptions configures direct repair enumeration (mode, state
	// budget).
	RepairOptions = repair.Options
	// StableOptions configures stable-model enumeration: its one field,
	// MaxCandidates, is the candidate-solve budget.
	StableOptions = stable.Options
	// QueryOptions configures direct query evaluation (null-handling
	// mode).
	QueryOptions = query.Options
	// RepairProgramOptions configures program generation (variant,
	// pruning).
	RepairProgramOptions = repairprog.BuildOptions
)

// NewCQAOptions returns the default CQA options: search engine, corrected
// program variant.
func NewCQAOptions() CQAOptions { return session.NewOptions() }

// Value constructors.
var (
	// Null returns the distinguished null constant.
	Null = value.Null
	// Int returns an integer constant.
	Int = value.Int
	// Str returns a string constant.
	Str = value.Str
	// NewInstance builds an instance from facts.
	NewInstance = relational.NewInstance
	// F builds a fact.
	F = relational.F
)

// Satisfaction semantics (Section 3).
const (
	// SemNullAware is the paper's |=_N (Definition 4).
	SemNullAware = nullsem.NullAware
	// SemClassicFO is classical first-order satisfaction.
	SemClassicFO = nullsem.ClassicFO
	// SemAllExempt is the CASCON 2004 semantics (the paper's [10]).
	SemAllExempt = nullsem.AllExempt
	// SemSimpleMatch is SQL:2003 simple match (the DBMS behaviour).
	SemSimpleMatch = nullsem.SimpleMatch
	// SemPartialMatch is SQL:2003 partial match.
	SemPartialMatch = nullsem.PartialMatch
	// SemFullMatch is SQL:2003 full match.
	SemFullMatch = nullsem.FullMatch
)

// Repair modes (Section 4).
const (
	// RepairNullBased is the paper's semantics: null insertions, ≤_D
	// minimality.
	RepairNullBased = repair.NullBased
	// RepairClassic is the Arenas–Bertossi–Chomicki baseline.
	RepairClassic = repair.Classic
)

// Repair program variants (Section 5; see DESIGN.md for the wrinkle).
const (
	// VariantPaper is Definition 9 verbatim.
	VariantPaper = repairprog.VariantPaper
	// VariantCorrected adds the fact-based aux rule restoring Theorem 4
	// on instances with nulls in existential witness positions.
	VariantCorrected = repairprog.VariantCorrected
)

// CQA engines.
const (
	// EngineSearch enumerates repairs with the violation-driven search.
	EngineSearch = session.EngineSearch
	// EngineProgram uses Definition 9 repair programs and stable models.
	EngineProgram = session.EngineProgram
	// EngineProgramCautious compiles the query into the repair program
	// and answers by cautious stable-model reasoning (the paper's
	// Section 5 pipeline, no repairs materialized).
	EngineProgramCautious = session.EngineProgramCautious
	// EngineDirect answers FD-only constraint sets from a repair-less
	// polynomial classification (one pass, exact repair counts, O(|delta|)
	// session maintenance); out-of-scope sets fail with ErrDirectScope.
	EngineDirect = session.EngineDirect
	// EngineAuto routes by constraint class at session creation: direct
	// when AnalyzeConstraints reports FD-only, search otherwise.
	EngineAuto = session.EngineAuto
)

// AnalyzeConstraints classifies a constraint set for engine routing: the
// result reports whether the set is within the direct engine's FD-only
// scope, and if not, why.
func AnalyzeConstraints(set *ConstraintSet) ConstraintAnalysis { return constraint.Analyze(set) }

// EngineNames lists the registered engine names accepted by
// EngineOptionsByName, the cqa -engine flag, and the cqad wire fields.
func EngineNames() []string { return engine.Names() }

// Engines returns the full registry: every selectable engine with its
// capabilities, in documentation order.
func Engines() []EngineSpec { return engine.All() }

// EngineOptionsByName maps a registry name ("search", "program",
// "cautious", "direct", "auto") onto CQA options — exactly the mapping the
// cqa CLI and cqad daemon apply to their engine selections. Unknown names
// fail with *engine.UnknownError.
func EngineOptionsByName(name string) (CQAOptions, error) {
	return engine.Options(name, 0)
}

// Query evaluation modes for the open |=q_N choice (see internal/query).
const (
	// QueryConstantNulls treats null as an ordinary constant (default).
	QueryConstantNulls = query.ConstantNulls
	// QuerySQLNulls follows SQL three-valued logic.
	QuerySQLNulls = query.SQLNulls
)

// Parsing.

// ParseInstance parses a database instance (facts like "course(21, c15).").
func ParseInstance(src string) (*Instance, error) { return parser.Instance(src) }

// ParseConstraints parses a constraint set (see internal/parser for the
// grammar).
func ParseConstraints(src string) (*ConstraintSet, error) { return parser.Constraints(src) }

// ParseQuery parses a datalog-style query.
func ParseQuery(src string) (*Query, error) { return parser.Query(src) }

// Sessions — the primary API. A session owns one persistent (D, IC) pair:
// maintained violation lists, cached repairs, and prepared standing
// queries survive across updates, so Session.Apply costs O(|Δ|) instead of
// a cold re-enumeration. Everything below the session (consistency,
// repairs, answers, standing-query diffs) is reachable through its
// methods, each with a ...Ctx variant.

// Session is a persistent (D, IC) pair. It is not safe for concurrent
// use; serialize access externally (cmd/cqad wraps one mutex per session).
type Session = session.Session

// SessionPrepared is a standing query registered with Session.Prepare.
type SessionPrepared = session.Prepared

// SessionApplyResult summarizes one Session.Apply.
type SessionApplyResult = session.ApplyResult

// SessionQueryUpdate is pushed to Subscribe callbacks when a prepared
// query's certain answers change.
type SessionQueryUpdate = session.QueryUpdate

// NewSession creates a session over d and set; d is frozen and all
// subsequent mutation goes through Session.Apply.
func NewSession(d *Instance, set *ConstraintSet, opts CQAOptions) *Session {
	return session.New(d, set, opts)
}

// Consistency checking (Section 3). These probes are instance-local (no
// repair enumeration), so they take no context.

// IsConsistent reports D |=_N IC.
func IsConsistent(d *Instance, set *ConstraintSet) bool {
	return nullsem.Satisfies(d, set, nullsem.NullAware)
}

// SatisfiesUnder checks the instance under any of the six implemented
// satisfaction semantics.
func SatisfiesUnder(d *Instance, set *ConstraintSet, sem Semantics) bool {
	return nullsem.Satisfies(d, set, sem)
}

// CheckViolations returns every violation under |=_N.
func CheckViolations(d *Instance, set *ConstraintSet) ViolationReport {
	return nullsem.Check(d, set, nullsem.NullAware)
}

// InsertionAllowed reports whether inserting f keeps the database
// consistent — the DBMS-style admission check of Examples 5–6.
func InsertionAllowed(d *Instance, set *ConstraintSet, f Fact, sem Semantics) bool {
	return nullsem.InsertionAllowed(d, set, f, sem)
}

// RICAcyclic reports whether the set is RIC-acyclic (Definition 1).
func RICAcyclic(set *ConstraintSet) bool { return depgraph.RICAcyclic(set) }

// One-shot entry points. Each answers once over a throwaway enumeration;
// callers that answer more than once against the same instance should hold
// a Session instead.

// ConsistentAnswersCtx computes the certain answers of q over all repairs
// (Definition 8). Cancelling ctx aborts the enumeration with ctx.Err().
func ConsistentAnswersCtx(ctx context.Context, d *Instance, set *ConstraintSet, q *Query, opts CQAOptions) (Answer, error) {
	return session.New(d, set, opts).AnswerCtx(ctx, q)
}

// PossibleAnswersCtx computes the brave answers (true in some repair).
func PossibleAnswersCtx(ctx context.Context, d *Instance, set *ConstraintSet, q *Query, opts CQAOptions) ([]Tuple, error) {
	return session.New(d, set, opts).PossibleCtx(ctx, q)
}

// RepairsCtx enumerates Rep(D, IC) (Section 4) under opts: the zero value
// means the paper's null-based semantics with default budgets.
func RepairsCtx(ctx context.Context, d *Instance, set *ConstraintSet, opts RepairOptions) (RepairResult, error) {
	return repair.RepairsCtx(ctx, d, set, opts)
}

// RepairsDCtx enumerates the deletion-preferring class Rep_d for sets with
// conflicting NOT NULL-constraints (Example 20).
func RepairsDCtx(ctx context.Context, d *Instance, set *ConstraintSet, opts RepairOptions) (RepairResult, error) {
	return repair.RepairsDCtx(ctx, d, set, opts)
}

// IsRepairCtx decides repair checking (Theorem 1's decision problem) by
// short-circuiting membership in the enumerated repair set.
func IsRepairCtx(ctx context.Context, d *Instance, set *ConstraintSet, cand *Instance, opts RepairOptions) (bool, error) {
	return repair.IsRepairCtx(ctx, d, set, cand, opts)
}

// StableModelRepairsCtx computes repairs via stable models of the repair
// program (corrected variant).
func StableModelRepairsCtx(ctx context.Context, d *Instance, set *ConstraintSet, opts StableOptions) ([]*Instance, error) {
	tr, err := repairprog.Build(d, set, repairprog.VariantCorrected)
	if err != nil {
		return nil, err
	}
	insts, _, err := tr.StableRepairsCtx(ctx, opts)
	return insts, err
}

// Repair programs (Section 5).

// BuildRepairProgram generates the Definition 9 repair program Π(D, IC).
func BuildRepairProgram(d *Instance, set *ConstraintSet, variant repairprog.Variant) (*RepairProgram, error) {
	return repairprog.Build(d, set, variant)
}

// BuildRepairProgramWith generates the program with explicit options, e.g.
// PruneUnconstrained to skip annotation rules for relations no constraint
// mentions (the [12]-style optimization).
func BuildRepairProgramWith(d *Instance, set *ConstraintSet, opts RepairProgramOptions) (*RepairProgram, error) {
	return repairprog.BuildWith(d, set, opts)
}

// GuaranteedHCF reports Theorem 5's sufficient head-cycle-freeness
// condition on the constraint set.
func GuaranteedHCF(set *ConstraintSet) bool { return repairprog.GuaranteedHCF(set) }

// Direct query evaluation (no repairs).

// EvalQuery evaluates q directly on one instance.
func EvalQuery(d *Instance, q *Query) ([]Tuple, error) { return query.Eval(d, q) }

// EvalQueryWith evaluates q with an explicit null-handling mode.
func EvalQueryWith(d *Instance, q *Query, opts QueryOptions) ([]Tuple, error) {
	return query.EvalWith(d, q, opts)
}
