package stable

// WithScratch returns opts with the solver-reuse ablation on: every
// solve call rebuilds its component's solver from the clause log.
func WithScratch(opts Options) Options {
	opts.scratchSolve = true
	return opts
}
