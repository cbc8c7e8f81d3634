package session

import (
	"context"

	"repro/internal/constraint"
	"repro/internal/direct"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
)

// resolveAuto picks the engine for EngineAuto: the repair-less direct
// engine when the set is FD-only under null-aware semantics, the search
// engine otherwise.
func resolveAuto(set *constraint.Set, opts Options) Engine {
	if opts.Repair.Mode == repair.Classic {
		return EngineSearch
	}
	if constraint.Analyze(set).FDOnly {
		return EngineDirect
	}
	return EngineSearch
}

// directBackend implements EngineDirect: certain and possible answers come
// straight off the polynomial FD classification of internal/direct, which
// is built lazily and then advanced by apply in O(|Δ|) — no re-scan, no
// repair enumeration. The classification never materializes repairs, so
// Repairs() on a direct session runs the seeded search.
type directBackend struct {
	s   *Session
	dir *direct.Engine
}

// apply moves the class counts and the conflicted-group set across eff.
func (b *directBackend) apply(eff relational.Delta) {
	if b.dir != nil {
		b.dir.Update(eff)
	}
}

func (b *directBackend) reanchor() {}

func (b *directBackend) enumerate(ctx context.Context) error {
	return (&searchBackend{s: b.s}).enumerate(ctx)
}

// plan returns nil: standing queries are re-answered off the
// classification.
func (b *directBackend) plan(*query.Q) (*query.BaseEval, error) { return nil, nil }

// classification materializes the FD classification on first use. Scope
// violations (non-FD constraints, classic semantics) surface as
// *direct.ScopeError wrapping direct.ErrScope.
func (b *directBackend) classification() (*direct.Engine, error) {
	if b.dir != nil {
		return b.dir, nil
	}
	if b.s.opts.Repair.Mode == repair.Classic {
		return nil, &direct.ScopeError{Reason: "classic repair semantics (the classification is null-aware only)"}
	}
	e, err := direct.New(b.s.head.Current(), b.s.set)
	if err != nil {
		return nil, err
	}
	b.dir = e
	return e, nil
}

// certain is one polynomial pass over the classification. NumRepairs is
// the exact product count; StatesExplored stays 0 and the engine never
// short-circuits, so the diagnostics are deterministic.
func (b *directBackend) certain(ctx context.Context, q *query.Q) (Answer, error) {
	e, err := b.classification()
	if err != nil {
		return Answer{}, err
	}
	res, err := e.CertainCtx(ctx, b.s.head.Current(), q)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Tuples: res.Tuples, Boolean: res.Boolean, NumRepairs: res.NumRepairs}, nil
}

func (b *directBackend) possible(ctx context.Context, q *query.Q) ([]relational.Tuple, error) {
	e, err := b.classification()
	if err != nil {
		return nil, err
	}
	return e.PossibleCtx(ctx, b.s.head.Current(), q)
}

// DirectStats exposes the classification work counters of the maintained
// direct engine (zero Stats when none was built), for tests pinning the
// O(|Δ|) incremental-maintenance contract.
func (s *Session) DirectStats() direct.Stats {
	if b, ok := s.eng.(*directBackend); ok && b.dir != nil {
		return b.dir.Stats()
	}
	return direct.Stats{}
}
