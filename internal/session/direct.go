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
// repair enumeration — and standing queries are patched along each apply.
// The classification also answers the session's Consistent and
// ViolationCount, so the violation lists are built only when Violations()
// or the search seed asks for them. The classification never materializes
// repairs, so Repairs() on a direct session runs the seeded search.
type directBackend struct {
	s   *Session
	dir *direct.Engine
	// pre is the head before the last apply, an overlay built by the first
	// patch of an apply that removed facts (only those anchor there).
	pre *relational.Instance
}

// apply moves the class counts and the conflicted-group set across eff.
func (b *directBackend) apply(eff relational.Delta) {
	b.pre = nil
	if b.dir != nil {
		b.dir.Update(eff)
	}
}

// patch moves p's valid answers across eff with direct.Engine.Patch and
// returns the tuples they gained and lost, sorted (a boolean query sets
// p.boolAns, and the lists are not used). An apply that changes the
// answers gives p a fresh list, as a recompute would. It costs the
// anchored joins of eff (a touched key group anchors every one of its
// facts) plus at most one head-bound probe per reached tuple.
func (b *directBackend) patch(ctx context.Context, p *Prepared, eff relational.Delta) (added, removed []relational.Tuple, err error) {
	cur := b.s.head.Current()
	if b.pre == nil && len(eff.Removed) > 0 {
		b.pre = cur.Clone()
		for _, f := range eff.Added {
			b.pre.Delete(f)
		}
		for _, f := range eff.Removed {
			b.pre.Insert(f)
		}
	}
	ans := p.tuples
	if p.isBool {
		ans = nil
		if p.boolAns {
			ans = []relational.Tuple{{}}
		}
	}
	next, added, removed, err := b.dir.Patch(ctx, b.pre, cur, p.q, eff, ans)
	if err != nil {
		return nil, nil, err
	}
	if p.isBool {
		p.boolAns = len(next) > 0
	} else {
		p.tuples = next
	}
	return added, removed, nil
}

func (b *directBackend) reanchor() {}

func (b *directBackend) enumerate(ctx context.Context) error {
	return (&searchBackend{s: b.s}).enumerate(ctx)
}

// plan returns nil: standing queries are answered off the classification
// and then patched across each apply.
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
	e.SetMaxStates(b.s.opts.Repair.MaxStates)
	b.dir = e
	return e, nil
}

// classification returns the FD classification of a direct session whose
// set is in the engine's scope, building it on first use, and nil on any
// other session: there, and under classic semantics or an out-of-scope set
// forced onto the direct engine, the violation lists answer Consistent and
// ViolationCount.
func (s *Session) classification() *direct.Engine {
	b, ok := s.eng.(*directBackend)
	if !ok {
		return nil
	}
	e, err := b.classification()
	if err != nil {
		return nil
	}
	return e
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

// DirectStats exposes the work counters of the maintained direct engine
// (zero Stats when none was built), for tests pinning the O(|Δ|)
// maintenance of its classification and of its standing queries.
func (s *Session) DirectStats() direct.Stats {
	if b, ok := s.eng.(*directBackend); ok && b.dir != nil {
		return b.dir.Stats()
	}
	return direct.Stats{}
}
