package ground

// WithNaive returns opts with the naive-fixpoint ablation on: every rule
// re-joined over the whole possible set on every round.
func WithNaive(opts Options) Options {
	opts.naive = true
	return opts
}
