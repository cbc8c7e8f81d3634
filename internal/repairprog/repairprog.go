// Package repairprog builds the repair logic programs of Definition 9: for
// a database D and a set IC of universal constraints, referential
// constraints and NOT NULL-constraints, a disjunctive program Π(D, IC)
// whose stable models correspond to the repairs of D for RIC-acyclic IC
// (Theorem 4). It also implements the bilateral-predicate analysis of
// Definition 11 and the sufficient head-cycle-freeness condition of
// Theorem 5.
//
// Annotated predicates carry an extra final attribute holding one of the
// annotation constants (the paper's ta, fa, t*, t**). The program's
// generated predicates — P_a for each annotated base predicate P, aux_ic
// for each referential constraint ic, and the query answer predicate
// q_ans — keep those names unless a relation of D or IC already uses one;
// such a name gets a numeric suffix instead (see Translation.fresh), so no
// base relation can ever be read as a generated one.
//
// # Known wrinkle of Definition 9 (documented deviation)
//
// The aux rules of Definition 9 require every existential attribute of a
// witness tuple to be non-null. That keeps inserted null-padded witnesses
// from deriving aux and destroying their own justification, but it also
// means an original fact with a null in an existential position — which
// satisfies the constraint under Definition 4 — cannot witness it either,
// and the program gains a spurious stable model that instead deletes the
// referencing tuple. VariantPaper reproduces the definition verbatim
// (matching Examples 21–23); VariantCorrected adds, per RIC, the rule
//
//	aux(x̄′) ← Q(x̄′, ȳ), not Q_a(x̄′, ȳ, fa), x̄′ ≠ null
//
// which lets original facts (any null pattern in ȳ) act as witnesses while
// inserted atoms remain governed by the paper's rules. With the corrected
// variant the Theorem 4 correspondence holds on all our test instances,
// including the discriminating ones.
package repairprog

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/relational"
	"repro/internal/stable"
	"repro/internal/term"
	"repro/internal/value"
)

// Annotation constants (the paper's ta, fa, t*, t**).
var (
	TA  = value.Str("ta")
	FA  = value.Str("fa")
	TS  = value.Str("ts")
	TSS = value.Str("tss")
)

// AnnSuffix makes the annotated predicate name P_a of a base predicate P.
const AnnSuffix = "_a"

// Variant selects the aux-rule treatment.
type Variant uint8

const (
	// VariantPaper is Definition 9 verbatim.
	VariantPaper Variant = iota
	// VariantCorrected adds the fact-based aux rule (see package doc).
	VariantCorrected
)

func (v Variant) String() string {
	if v == VariantCorrected {
		return "corrected"
	}
	return "paper"
}

// Translation is a generated repair program with the metadata needed to
// read repairs back from its stable models.
type Translation struct {
	// Program is Π(D, IC). After a Rebase its facts lag behind the base
	// until BaseGrounding grounds it from scratch, Render or WithQuery
	// reads it; read it directly only on a translation never rebased.
	Program *logic.Program
	Set     *constraint.Set
	Variant Variant
	// GroundOptions configures how Π(D, IC) is grounded. It must be set
	// before the first call of BaseGrounding (directly or via
	// StreamRepairs/GroundWithQuery); later changes have no effect, since
	// the grounding is computed once and then maintained.
	GroundOptions ground.Options
	// base is the instance D the program was built from, or the one the
	// last Rebase moved it to. Streamed repairs are emitted as
	// copy-on-write overlays of it (see ModelReader), so it must not be
	// mutated while the translation is in use.
	base *relational.Instance
	// annOf maps each annotated base predicate to its annotated name, and
	// annToBase maps it back.
	annOf     map[string]string
	annToBase map[string]string
	// answer is the head predicate of the query rules (QueryRules).
	answer string
	// generated holds every predicate name the translation made up:
	// annotated, aux and answer predicates. None is a relation of D or IC.
	generated map[string]bool
	// annotated records the base predicates carrying rules 5–7; nil
	// means "all of them" (no pruning).
	annotated map[string]bool
	// passthrough records the predicates whose base facts are copied
	// verbatim into every repair (pruned unconstrained predicates).
	passthrough map[string]bool
	// ruled records the relations that carry rules 5–7.
	ruled map[relational.RelKey]bool

	// mu guards the grounding of Π(D, IC), shared by every repair stream
	// and query of this translation, the base changes queued for it, and
	// the program's facts.
	mu         sync.Mutex
	groundProg *ground.Program
	groundErr  error
	// pending holds the net base change since the grounding was last
	// brought up to date, by fact key; factsStale is set while
	// Program.Facts lags behind the base.
	pending    map[string]pendingFact
	factsStale bool
}

// pendingFact is one queued change of a base fact.
type pendingFact struct {
	fact  relational.Fact
	added bool
}

// BuildOptions configures program generation.
type BuildOptions struct {
	Variant Variant
	// PruneUnconstrained drops the annotation rules 5–7 for predicates
	// that occur in no constraint: such relations are untouched by every
	// repair, so their facts can be copied into D_M directly. This is
	// the spirit of the repair-program optimizations of Caniupán &
	// Bertossi (SCCC 2005, the paper's [12]): smaller programs, smaller
	// groundings, same stable-model repairs.
	PruneUnconstrained bool
}

// annAtom returns the annotated version of atom a with the given
// annotation constant.
func (tr *Translation) annAtom(a term.Atom, ann value.V) term.Atom {
	args := make([]term.T, 0, len(a.Args)+1)
	args = append(args, a.Args...)
	args = append(args, term.C(ann))
	return term.Atom{Pred: tr.annOf[a.Pred], Args: args}
}

// fresh returns want as a generated predicate name, or, when a base
// relation or an earlier generated name already has it, the first of
// want_1, want_2, ... that is free. taken holds the names in use.
func (tr *Translation) fresh(taken map[string]bool, want string) string {
	name := want
	for i := 1; taken[name]; i++ {
		name = fmt.Sprintf("%s_%d", want, i)
	}
	taken[name] = true
	tr.generated[name] = true
	return name
}

// freshVars returns the variable terms prefix1..prefixN.
func freshVars(prefix string, n int) []term.T {
	out := make([]term.T, n)
	for i := range out {
		out[i] = term.V(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

// Build translates (D, IC) into the repair program Π(D, IC). It returns an
// error if the set contains constraints outside Definition 9's scope
// (general existential constraints with multiple body or head atoms) or if
// the set is conflicting.
func Build(d *relational.Instance, set *constraint.Set, variant Variant) (*Translation, error) {
	return BuildWith(d, set, BuildOptions{Variant: variant})
}

// BuildWith is Build with explicit options.
func BuildWith(d *relational.Instance, set *constraint.Set, opts BuildOptions) (*Translation, error) {
	variant := opts.Variant
	if !set.NonConflicting() {
		return nil, fmt.Errorf("repairprog: conflicting IC set: %v", set.Conflicts()[0])
	}
	tr := &Translation{
		Program:   &logic.Program{},
		Set:       set,
		Variant:   variant,
		base:      d,
		annOf:     map[string]string{},
		annToBase: map[string]string{},
		generated: map[string]bool{},
		ruled:     map[relational.RelKey]bool{},
	}
	if opts.PruneUnconstrained {
		tr.annotated = map[string]bool{}
		tr.passthrough = map[string]bool{}
		for _, sig := range set.Preds() {
			tr.annotated[sig.Name] = true
		}
		for _, rk := range d.RelKeys() {
			if !tr.annotated[rk.Pred] {
				tr.passthrough[rk.Pred] = true
			}
		}
	}

	// Name the generated predicates, clear of every relation of D and IC:
	// the annotated ones, then (in addRIC) the aux ones, then the answer.
	preds := tr.allPreds(d)
	taken := map[string]bool{}
	for _, sig := range preds {
		taken[sig.Name] = true
	}
	for _, sig := range preds {
		if tr.annotates(sig.Name) && tr.annOf[sig.Name] == "" {
			name := tr.fresh(taken, sig.Name+AnnSuffix)
			tr.annOf[sig.Name] = name
			tr.annToBase[name] = sig.Name
		}
	}

	// Rule 1: facts.
	tr.Program.AddInstance(d)

	for _, ic := range set.ICs {
		switch ic.Classify() {
		case constraint.ClassUIC:
			tr.addUIC(ic)
		case constraint.ClassRIC:
			tr.addRIC(ic, tr.fresh(taken, "aux_"+ic.Name))
		default:
			return nil, fmt.Errorf("repairprog: constraint %s is outside Definition 9's class (general existential constraint)", ic.Name)
		}
	}

	tr.answer = tr.fresh(taken, "q_ans")

	// Rule 4: NNCs.
	for _, n := range set.NNCs {
		vars := freshVars("x", n.Arity)
		base := term.Atom{Pred: n.Pred, Args: vars}
		tr.Program.Rules = append(tr.Program.Rules, logic.Rule{
			Head:     []term.Atom{tr.annAtom(base, FA)},
			Pos:      []term.Atom{tr.annAtom(base, TS)},
			Builtins: []term.Builtin{{Op: term.EQ, L: vars[n.Pos], R: term.CNull()}},
		})
	}

	// Rules 5–7 for every predicate of the constraints and the instance
	// (constrained predicates only when pruning).
	for _, sig := range preds {
		if !tr.annotates(sig.Name) {
			continue
		}
		tr.ruled[relational.RelKey{Pred: sig.Name, Arity: sig.Arity}] = true
		vars := freshVars("x", sig.Arity)
		base := term.Atom{Pred: sig.Name, Args: vars}
		tr.Program.Rules = append(tr.Program.Rules,
			// Rule 5: t* holds for facts and for advised insertions.
			logic.Rule{Head: []term.Atom{tr.annAtom(base, TS)}, Pos: []term.Atom{base}},
			logic.Rule{Head: []term.Atom{tr.annAtom(base, TS)}, Pos: []term.Atom{tr.annAtom(base, TA)}},
			// Rule 6: t** holds for what is (or becomes) true and is
			// not advised false.
			logic.Rule{
				Head: []term.Atom{tr.annAtom(base, TSS)},
				Pos:  []term.Atom{tr.annAtom(base, TS)},
				Neg:  []term.Atom{tr.annAtom(base, FA)},
			},
			// Rule 7: the program denial.
			logic.Rule{Pos: []term.Atom{tr.annAtom(base, TA), tr.annAtom(base, FA)}},
		)
	}
	if err := tr.Program.Validate(); err != nil {
		return nil, fmt.Errorf("repairprog: generated an invalid program: %v", err)
	}
	return tr, nil
}

// allPreds collects predicate signatures from the constraint set and the
// instance (repairs leave unconstrained relations untouched, but rule 6
// must still annotate their atoms with t**).
func (tr *Translation) allPreds(d *relational.Instance) []constraint.PredSig {
	seen := map[constraint.PredSig]bool{}
	var out []constraint.PredSig
	add := func(sig constraint.PredSig) {
		if !seen[sig] {
			seen[sig] = true
			out = append(out, sig)
		}
	}
	for _, sig := range tr.Set.Preds() {
		add(sig)
	}
	for _, rk := range d.RelKeys() {
		add(constraint.PredSig{Name: rk.Pred, Arity: rk.Arity})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// addUIC emits the rules 2 of Definition 9: one rule per split of the
// consequent atoms into Q′ (advised false) and Q″ (not originally true).
func (tr *Translation) addUIC(ic *constraint.IC) {
	relevantVars := ic.RelevantBodyVars()
	n := len(ic.Head)
	for mask := 0; mask < 1<<n; mask++ {
		var r logic.Rule
		for _, b := range ic.Body {
			r.Head = append(r.Head, tr.annAtom(b, FA))
			r.Pos = append(r.Pos, tr.annAtom(b, TS))
		}
		for j, h := range ic.Head {
			r.Head = append(r.Head, tr.annAtom(h, TA))
			if mask&(1<<j) != 0 {
				r.Pos = append(r.Pos, tr.annAtom(h, FA)) // Q′
			} else {
				r.Neg = append(r.Neg, h) // Q″: not originally true
			}
		}
		for _, v := range relevantVars {
			r.Builtins = append(r.Builtins, term.Builtin{Op: term.NEQ, L: term.V(v), R: term.CNull()})
		}
		for _, phi := range ic.Phi {
			r.Builtins = append(r.Builtins, phi.Negate()) // ϕ̄
		}
		tr.Program.Rules = append(tr.Program.Rules, r)
	}
}

// addRIC emits the rules 3 of Definition 9 (plus the corrected aux rule
// when selected), with auxName as the aux predicate.
func (tr *Translation) addRIC(ic *constraint.IC, auxName string) {
	parts, ok := ic.RICParts()
	if !ok {
		panic("repairprog: addRIC on non-RIC")
	}
	body, head := parts.BodyAtom, parts.HeadAtom

	// x̄′: the shared terms, in head-position order.
	shared := make([]term.T, 0, len(parts.SharedPos))
	var sharedVars []string
	seenVar := map[string]bool{}
	for _, p := range parts.SharedPos {
		t := head.Args[p]
		shared = append(shared, t)
		if t.IsVar() && !seenVar[t.Var] {
			seenVar[t.Var] = true
			sharedVars = append(sharedVars, t.Var)
		}
	}
	auxAtom := term.Atom{Pred: auxName, Args: shared}

	// Null-padded insertion head: existential positions become null.
	padded := head.Clone()
	for _, p := range parts.ExistPos {
		padded.Args[p] = term.CNull()
	}

	sharedGuards := make([]term.Builtin, 0, len(sharedVars))
	for _, v := range sharedVars {
		sharedGuards = append(sharedGuards, term.Builtin{Op: term.NEQ, L: term.V(v), R: term.CNull()})
	}

	// Main rule: P(x̄,fa) ∨ Q(x̄′,null,ta) ← P(x̄,t*), not aux(x̄′), x̄′ ≠ null.
	tr.Program.Rules = append(tr.Program.Rules, logic.Rule{
		Head:     []term.Atom{tr.annAtom(body, FA), tr.annAtom(padded, TA)},
		Pos:      []term.Atom{tr.annAtom(body, TS)},
		Neg:      []term.Atom{auxAtom},
		Builtins: sharedGuards,
	})

	// aux rules, one per distinct existential variable (Definition 9):
	// aux(x̄′) ← Q(x̄′,ȳ,t*), not Q(x̄′,ȳ,fa), x̄′ ≠ null, yi ≠ null.
	var existVars []string
	seenExist := map[string]bool{}
	for _, p := range parts.ExistPos {
		v := head.Args[p].Var
		if !seenExist[v] {
			seenExist[v] = true
			existVars = append(existVars, v)
		}
	}
	for _, y := range existVars {
		builtins := append(append([]term.Builtin{}, sharedGuards...),
			term.Builtin{Op: term.NEQ, L: term.V(y), R: term.CNull()})
		tr.Program.Rules = append(tr.Program.Rules, logic.Rule{
			Head:     []term.Atom{auxAtom},
			Pos:      []term.Atom{tr.annAtom(head, TS)},
			Neg:      []term.Atom{tr.annAtom(head, FA)},
			Builtins: builtins,
		})
	}

	if tr.Variant == VariantCorrected {
		// aux(x̄′) ← Q(x̄′,ȳ), not Q(x̄′,ȳ,fa), x̄′ ≠ null: original
		// facts witness regardless of nulls in existential positions.
		tr.Program.Rules = append(tr.Program.Rules, logic.Rule{
			Head:     []term.Atom{auxAtom},
			Pos:      []term.Atom{head},
			Neg:      []term.Atom{tr.annAtom(head, FA)},
			Builtins: sharedGuards,
		})
	}
}

// Interpret extracts the database instance D_M of Definition 10 from a
// stable model: the atoms annotated t**, plus the base facts of pruned
// unconstrained predicates (which every repair preserves verbatim).
func (tr *Translation) Interpret(gp *ground.Program, m stable.Model) *relational.Instance {
	out := relational.NewInstance()
	for _, id := range m {
		f := gp.Atoms[id]
		if tr.passthrough[f.Pred] {
			out.Insert(f)
			continue
		}
		base, ok := tr.annToBase[f.Pred]
		if !ok || len(f.Args) == 0 {
			continue
		}
		if !f.Args[len(f.Args)-1].Eq(TSS) {
			continue
		}
		out.Insert(relational.Fact{Pred: base, Args: f.Args[:len(f.Args)-1]})
	}
	return out
}

// StreamRepairs grounds the program and streams each stable model with the
// database instance D_M it induces (Definition 10) and its delta against
// the base, as the model arrives from stable.Enumerate — the first repair
// candidate is observable before the model enumeration completes, so
// boolean CQA can cancel the rest. The instance is a copy-on-write overlay
// of the base D (see ModelReader), built and delivered in O(|Δ|) per model.
// Distinct models can induce the same instance; deduplication is the
// caller's concern. yield returning false cancels the enumeration (nil
// error), mirroring the streaming contract of repair.Enumerate.
func (tr *Translation) StreamRepairs(opts stable.Options, yield func(inst *relational.Instance, delta relational.Delta, m stable.Model) bool) error {
	return tr.StreamRepairsCtx(context.Background(), opts, yield)
}

// StreamRepairsCtx is StreamRepairs under a context: cancellation aborts the
// underlying stable-model enumeration (see stable.EnumerateCtx) and returns
// ctx.Err(). The base grounding is never poisoned by cancellation: it runs
// to completion before the enumeration starts.
func (tr *Translation) StreamRepairsCtx(ctx context.Context, opts stable.Options, yield func(inst *relational.Instance, delta relational.Delta, m stable.Model) bool) error {
	gp, err := tr.BaseGrounding()
	if err != nil {
		return err
	}
	reader := tr.NewModelReader(gp)
	return stable.EnumerateCtx(ctx, gp, opts, func(m stable.Model) bool {
		inst, delta := reader.Repair(m)
		return yield(inst, delta, m)
	})
}

// AffectedBy reports whether a base update changes the compiled program:
// true iff some changed fact belongs to an annotated relation, whose facts
// are compiled into the program (rule 1) and its grounding, or to a
// relation named like one of the program's generated predicates. For an
// unpruned translation every relation is annotated, so any non-empty delta
// changes it; a pruned translation is unchanged by updates that touch only
// passthrough (unconstrained) relations. A change to an annotated fact
// always changes the instances of its rule 5, so the program's stable
// models, and the repairs they induce, must be read again.
func (tr *Translation) AffectedBy(delta relational.Delta) bool {
	touched := func(fs []relational.Fact) bool {
		for _, f := range fs {
			if tr.annotates(f.Pred) || tr.generated[f.Pred] {
				return true
			}
		}
		return false
	}
	return touched(delta.Removed) || touched(delta.Added)
}

// Rebase swaps the translation's base for newBase, where delta is the
// change between the two, and queues delta for the grounding: the next
// BaseGrounding folds every queued change into it (ground.Program.Update)
// instead of grounding Π(D, IC) again, so Rebase itself costs O(|Δ|). It
// refuses (returns false), changing nothing, when the compiled rules
// cannot absorb delta: a fact names a generated predicate, which a
// rebuilt translation must rename, or a fact of an annotated relation has
// no rules 5–7 yet (on an unpruned translation, any relation D did not
// have). The caller then builds a new translation. Otherwise newly
// appearing unconstrained relations of a pruned translation become
// passthrough relations.
//
// After a rebase, repair streams and query groundings read the new base:
// ModelReader rebuilds its edit lists from the current base per call,
// edits touch only annotated relations, and passthrough facts ride the
// new base and, through the queued change, the grounding that query rules
// are ground against. Rebase must not run concurrently with other uses of
// the translation.
func (tr *Translation) Rebase(newBase *relational.Instance, delta relational.Delta) bool {
	for _, fs := range [2][]relational.Fact{delta.Removed, delta.Added} {
		for _, f := range fs {
			if tr.generated[f.Pred] {
				return false
			}
			if tr.annotates(f.Pred) && !tr.ruled[relational.RelKey{Pred: f.Pred, Arity: len(f.Args)}] {
				return false
			}
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.base = newBase
	if tr.passthrough != nil {
		for _, f := range delta.Added {
			if !tr.annotates(f.Pred) {
				tr.passthrough[f.Pred] = true
			}
		}
	}
	if delta.Size() == 0 {
		return true
	}
	tr.factsStale = true
	if tr.groundProg == nil {
		return true // the first grounding reads the base as it is then
	}
	if tr.pending == nil {
		tr.pending = map[string]pendingFact{}
	}
	queue := func(f relational.Fact, added bool) {
		k := f.Key()
		if p, ok := tr.pending[k]; ok && p.added != added {
			delete(tr.pending, k) // undoes the queued change
			return
		}
		tr.pending[k] = pendingFact{fact: f, added: added}
	}
	for _, f := range delta.Removed {
		queue(f, false)
	}
	for _, f := range delta.Added {
		queue(f, true)
	}
	return true
}

// program returns Π(D, IC) with its facts brought up to the current base.
// The caller holds tr.mu.
func (tr *Translation) program() *logic.Program {
	if tr.factsStale {
		tr.Program.Facts = nil
		tr.Program.AddInstance(tr.base)
		tr.factsStale = false
	}
	return tr.Program
}

// BaseGrounding returns the grounding of Π(D, IC) that every repair stream
// and query of the translation shares: ground once, then moved across each
// base change Rebase queued (ground.Program.Update), so the program
// returned is the grounding of the current base's program up to atom
// numbering and rule order. The returned program retains its grounding
// snapshot, so per-query rules can be grounded against it with
// ground.Extend instead of re-grounding the repair program. A call that
// folds queued changes in invalidates every extension of the returned
// program built before it. Safe for concurrent use between Rebases.
func (tr *Translation) BaseGrounding() (*ground.Program, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	switch {
	case tr.groundProg == nil && tr.groundErr == nil:
		tr.groundProg, tr.groundErr = ground.GroundWith(tr.program(), tr.GroundOptions)
	case tr.groundProg != nil && len(tr.pending) > 0:
		var added, removed []relational.Fact
		for _, p := range tr.pending {
			if p.added {
				added = append(added, p.fact)
			} else {
				removed = append(removed, p.fact)
			}
		}
		tr.pending = nil
		// Sorted, so atom numbering is a function of the changes alone.
		relational.SortFacts(added)
		relational.SortFacts(removed)
		if err := tr.groundProg.Update(added, removed); err != nil {
			tr.groundProg, tr.groundErr = nil, err
		}
	}
	return tr.groundProg, tr.groundErr
}

// StableRepairs materializes the stream: the distinct database instances
// induced by the stable models, in content-canonical order, along with the
// models themselves (in stream order). Dedup goes through fingerprints
// confirmed by Equal; since every streamed repair is an overlay of one
// shared base, each confirm costs O(|Δ|), not an O(|D|) key encoding.
func (tr *Translation) StableRepairs(opts stable.Options) ([]*relational.Instance, []stable.Model, error) {
	return tr.StableRepairsCtx(context.Background(), opts)
}

// StableRepairsCtx is StableRepairs under a context (see StreamRepairsCtx).
func (tr *Translation) StableRepairsCtx(ctx context.Context, opts stable.Options) ([]*relational.Instance, []stable.Model, error) {
	var models []stable.Model
	seen := relational.NewInstanceSet()
	var out []*relational.Instance
	if err := tr.StreamRepairsCtx(ctx, opts, func(inst *relational.Instance, _ relational.Delta, m stable.Model) bool {
		models = append(models, m)
		if seen.Add(inst) {
			out = append(out, inst)
		}
		return true
	}); err != nil {
		return nil, nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, models, nil
}

// BilateralPreds returns the predicates that occur in the antecedent of
// some constraint and in the consequent of some (possibly the same)
// constraint — Definition 11.
func BilateralPreds(set *constraint.Set) []string {
	inBody := map[string]bool{}
	inHead := map[string]bool{}
	for _, ic := range set.ICs {
		for _, a := range ic.Body {
			inBody[a.Pred] = true
		}
		for _, a := range ic.Head {
			inHead[a.Pred] = true
		}
	}
	var out []string
	for p := range inBody {
		if inHead[p] {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// GuaranteedHCF implements Theorem 5's sufficient condition: every
// constraint has at most one occurrence of a bilateral predicate. The
// condition is sufficient but not necessary (the paper's P(x,a) → P(x,b)
// example fails the condition yet grounds to an HCF program).
func GuaranteedHCF(set *constraint.Set) bool {
	bilateral := map[string]bool{}
	for _, p := range BilateralPreds(set) {
		bilateral[p] = true
	}
	for _, ic := range set.ICs {
		occurrences := 0
		for _, a := range ic.Body {
			if bilateral[a.Pred] {
				occurrences++
			}
		}
		for _, a := range ic.Head {
			if bilateral[a.Pred] {
				occurrences++
			}
		}
		if occurrences > 1 {
			return false
		}
	}
	return true
}

// Render prints the program with a rule-group commentary matching
// Definition 9's numbering, for cmd/repairgen and the examples.
func (tr *Translation) Render() string {
	tr.mu.Lock()
	prog := tr.program()
	tr.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%% repair program Π(D, IC), variant=%s\n", tr.Variant)
	fmt.Fprintf(&b, "%% annotations: ta=advised true, fa=advised false, ts=t*, tss=t**\n")
	b.WriteString(prog.String())
	return b.String()
}
