package stable

import "repro/internal/ground"

// WithScratch returns opts with the solver-reuse ablation on: every
// solve call rebuilds its component's solver from the clause log.
func WithScratch(opts Options) Options {
	opts.scratchSolve = true
	return opts
}

// ComponentCandidates enumerates component c of p to exhaustion on the
// persistent solver and returns its stable models and the candidate solves
// it took: every one that yielded a candidate, and the one that found the
// component exhausted.
func ComponentCandidates(p *ground.Program, c int) (models, solves int) {
	cs := Decompose(p)
	bud := Options{}.budget()
	e := newEnumerator(cs.comps[c], bud, func() bool { return false }, false)
	for {
		if _, ok := e.next(); !ok {
			break
		}
		models++
	}
	return models, bud.n + 1
}
