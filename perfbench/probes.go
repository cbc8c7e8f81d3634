package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/constraint"
	"repro/internal/direct"
	"repro/internal/ground"
	"repro/internal/nullsem"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/session"
	"repro/internal/stable"
)

// probes time, from outside the session, the engine-layer calls the
// session makes internally, on the session's own current state. Each probe
// is a span marked probe, recorded after the op span has closed. A probe
// that repeats work the op's session call just did is a mirror; mirrors
// are what trace.session_explained_pct sums.
type probes struct {
	w    *workload
	sess *session.Session
	set  *constraint.Set
	qs   []*query.Q
	tr   *tracer
	eng  session.Engine

	// probe-owned copies of the maintained state
	checkers []*nullsem.ICChecker
	viols    [][]nullsem.Violation
	dir      *direct.Engine
	trans    *repairprog.Translation
	stale    bool // the session dropped its translation

	record  bool
	samples map[string][]float64 // ms per probe call (us for *_us names)
	counts  map[string][]float64
	mirror  [numClasses]float64 // mirror probe ms per class
	errs    []error
}

func newProbes(w *workload, sess *session.Session, qs []*query.Q, tr *tracer) *probes {
	pr := &probes{
		w: w, sess: sess, set: sess.Set(), qs: qs, tr: tr, eng: sess.Options().Engine,
		samples: map[string][]float64{}, counts: map[string][]float64{},
	}
	cur := sess.Current()
	for _, ic := range pr.set.ICs {
		ck := nullsem.NewICChecker(ic, nullsem.NullAware)
		pr.checkers = append(pr.checkers, ck)
		pr.viols = append(pr.viols, ck.Violations(cur))
	}
	pr.record = true
	switch pr.eng {
	case session.EngineDirect:
		pr.timed("direct.new_ms", noMirror, func() {
			var err error
			pr.dir, err = direct.New(cur, pr.set)
			pr.fail(err)
		})
	case session.EngineProgramCautious:
		pr.stale = true
	}
	return pr
}

func (pr *probes) fail(err error) {
	if err != nil {
		pr.errs = append(pr.errs, err)
	}
}

// timed runs f inside a probe span. mirrorOf is the class whose session
// work f repeats, or noMirror.
func (pr *probes) timed(name string, mirrorOf class, f func()) {
	sp := pr.tr.begin(name) // the op span has closed: no parent
	if sp >= 0 {
		pr.tr.spans[sp].Probe = true
	}
	t0 := time.Now()
	f()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	pr.tr.end(sp)
	if !pr.record {
		return
	}
	pr.samples[name] = append(pr.samples[name], ms)
	if mirrorOf < numClasses {
		pr.mirror[mirrorOf] += ms
	}
}

const noMirror = class(255)

func (pr *probes) count(name string, v float64) {
	if pr.record {
		pr.counts[name] = append(pr.counts[name], v)
	}
}

// beforeOp runs the fixed-position probes at every period boundary, where
// the contents equal the start: a full scan of the constrained relations
// and a scratch violation check, which both grow with overlay tombstones.
func (pr *probes) beforeOp(i int) {
	if i%pr.w.period != 0 {
		return
	}
	cur := pr.sess.Current()
	if n := cur.Len(); n != pr.w.facts {
		pr.fail(fmt.Errorf("op %d: %d facts at a period boundary, want %d", i, n, pr.w.facts))
	}
	pr.timed("relational.scan_ms", noMirror, func() {
		for _, rk := range pr.w.constrained {
			cur.Scan(rk.Pred, rk.Arity, nil, func(relational.Tuple) bool { return true })
		}
	})
	pr.timed("nullsem.check_ms", noMirror, func() {
		for _, ck := range pr.checkers {
			ck.Violations(cur)
		}
	})
}

// touches reports whether a standing query reads a predicate of eff.
func touches(q *query.Q, eff relational.Delta) bool {
	for _, p := range q.Preds() {
		for _, f := range eff.Facts() {
			if f.Pred == p {
				return true
			}
		}
	}
	return false
}

func (pr *probes) afterApply(c class, res session.ApplyResult) {
	ctx := context.Background()
	cur := pr.sess.Current()
	eff := res.Applied

	var touched []int
	for i, ck := range pr.checkers {
		for _, f := range eff.Facts() {
			if ck.SharesPred(f.Pred) {
				touched = append(touched, i)
				break
			}
		}
	}
	if len(touched) > 0 {
		pr.timed("nullsem.update_us", c, func() {
			for _, i := range touched {
				pr.viols[i] = pr.checkers[i].Update(cur, pr.viols[i], eff)
			}
		})
	}
	var refreshed []*query.Q
	for _, q := range pr.qs {
		if res.ConstraintRelevant || touches(q, eff) {
			refreshed = append(refreshed, q)
		}
	}

	switch pr.eng {
	case session.EngineDirect:
		pr.timed("direct.update_us", c, func() { pr.dir.Update(eff) })
		for _, q := range refreshed {
			pr.timed("direct.certain_ms", c, func() {
				_, err := pr.dir.CertainCtx(ctx, cur, q)
				pr.fail(err)
			})
		}
	case session.EngineSearch:
		if res.ConstraintRelevant {
			pr.enumerate(c)
		}
		for _, q := range refreshed {
			pr.patch(c, q, false)
		}
	case session.EngineProgramCautious:
		if res.ConstraintRelevant {
			pr.stale = true
		} else if !pr.stale {
			pr.timed("repairprog.rebase", c, func() { pr.trans.Rebase(cur, eff) })
		}
	}
}

func (pr *probes) afterQuery(q *query.Q) {
	ctx := context.Background()
	cur := pr.sess.Current()
	switch pr.eng {
	case session.EngineDirect:
		pr.timed("direct.certain_ms", adhocQuery, func() {
			_, err := pr.dir.CertainCtx(ctx, cur, q)
			pr.fail(err)
		})
	case session.EngineSearch:
		pr.patch(adhocQuery, q, true)
	case session.EngineProgramCautious:
		if pr.stale {
			pr.timed("repairprog.build_ms", adhocQuery, func() {
				var err error
				pr.trans, err = repairprog.BuildWith(cur, pr.set, repairprog.BuildOptions{
					Variant: pr.sess.Options().Variant, PruneUnconstrained: true,
				})
				pr.fail(err)
			})
			pr.trans.GroundOptions = pr.sess.Options().Ground
			pr.timed("ground.base_ms", adhocQuery, func() {
				_, err := pr.trans.BaseGrounding()
				pr.fail(err)
			})
			pr.stale = false
		}
		var gp *ground.Program
		pr.timed("ground.extend_ms", adhocQuery, func() {
			var err error
			gp, err = pr.trans.GroundWithQuery(q)
			pr.fail(err)
		})
		if gp == nil {
			return
		}
		pr.count("ground.atoms", float64(gp.NumAtoms()))
		pr.count("ground.rules", float64(len(gp.Rules)))
		models := 0
		pr.timed("stable.enumerate_ms", adhocQuery, func() {
			pr.fail(stable.EnumerateCtx(ctx, gp, pr.sess.Options().Stable, func(stable.Model) bool {
				models++
				return true
			}))
		})
		pr.count("stable.models", float64(models))
	}
}

// enumerate repeats the session's seeded re-enumeration: repair search
// from the maintained violation lists, fed into the ≤_D antichain.
func (pr *probes) enumerate(c class) {
	cur := pr.sess.Current()
	ropts := pr.sess.Options().Repair
	ropts.Seed = &repair.Seed{Viols: pr.viols}
	var (
		stats   repair.Stats
		repairs int
	)
	pr.timed("repair.enumerate_ms", c, func() {
		ac := repair.NewAntichain(cur, ropts.Mode)
		var err error
		stats, err = repair.EnumerateCtx(context.Background(), cur, pr.set, ropts, func(leaf *relational.Instance) bool {
			ac.Add(leaf)
			return true
		})
		pr.fail(err)
		rs, _ := ac.Results()
		repairs = len(rs)
	})
	pr.count("repair.repairs", float64(repairs))
	pr.count("repair.states", float64(stats.StatesExplored))
	pr.count("repair.leaves", float64(stats.Leaves))
}

// patch repeats the session's certain-answer patching of q over the cached
// repairs: one base evaluation, then BaseEval.DiffOn per repair (the patch
// certainWith applies). A standing refresh reuses the prepared plan, so its
// base evaluation is not a mirror; an ad-hoc query builds one.
func (pr *probes) patch(c class, q *query.Q, adhoc bool) {
	repairs, err := pr.sess.Repairs()
	if err != nil {
		pr.fail(err)
		return
	}
	mirrorOf := noMirror
	if adhoc {
		mirrorOf = c
	}
	var be *query.BaseEval
	pr.timed("query.base_eval_ms", mirrorOf, func() {
		be, err = query.NewBaseEval(pr.sess.Current(), q)
		pr.fail(err)
	})
	if be == nil {
		return
	}
	for _, r := range repairs {
		pr.timed("query.patch_us", c, func() { be.DiffOn(r) })
	}
}
