package direct

import (
	"context"
	"sort"

	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/term"
)

// Result is the outcome of one direct evaluation, mirroring the session
// Answer conventions: boolean queries set Boolean and leave Tuples nil;
// non-boolean queries return sorted distinct tuples, nil when empty.
// NumRepairs is the exact repair count (never a short-circuit artifact —
// the direct engine computes it as a product, not by enumeration).
type Result struct {
	Tuples     []relational.Tuple
	Boolean    bool
	NumRepairs int
}

// witness is the repair-set footprint of one assignment: the classes its
// positive literals require to survive and the classes its negated literals
// require to be deleted, per conflict group. A witness with no constraints
// holds in every repair; buildWitness returns it as nil. req and exc are
// nil when empty.
type witness struct {
	req map[*group]string
	exc map[*group]map[string]bool
}

func (w *witness) free() bool { return w == nil || len(w.req) == 0 && len(w.exc) == 0 }

// cand accumulates the witnesses of one candidate answer tuple.
type cand struct {
	tuple     relational.Tuple
	witnesses []*witness
	certain   bool // a constraint-free witness was seen
}

const ctxCheckEvery = 4096

// evaluator runs one query over one instance against the classification.
type evaluator struct {
	e     *Engine
	d     *relational.Instance
	ctx   context.Context
	steps int
	// nodes counts the covers calls of the current candidate; more than
	// maxNodes fails the query with repair.ErrStateLimit.
	nodes, maxNodes int
	// args is the scratch tuple a literal is grounded into, and key the
	// scratch buffer a head projection is encoded into, so that an
	// assignment allocates only once it names a new candidate or a
	// conflict.
	args relational.Tuple
	key  []byte
}

func (e *Engine) newEvaluator(ctx context.Context, d *relational.Instance) *evaluator {
	limit := e.maxStates
	if limit <= 0 {
		limit = repair.DefaultMaxStates
	}
	return &evaluator{e: e, d: d, ctx: ctx, maxNodes: limit}
}

func (ev *evaluator) tick() error {
	ev.steps++
	if ev.steps%ctxCheckEvery == 0 {
		return ev.ctx.Err()
	}
	return nil
}

// CertainCtx computes the certain (consistent) answers of q on d: the
// tuples answering q in every null-based repair. One polynomial pass builds
// each candidate's witnesses from the classification; a candidate is
// certain iff its witnesses cover every per-group class choice.
func (e *Engine) CertainCtx(ctx context.Context, d *relational.Instance, q *query.Q) (Result, error) {
	cands, err := e.collect(ctx, d, q)
	if err != nil {
		return Result{}, err
	}
	res := Result{NumRepairs: e.NumRepairs()}
	ev := e.newEvaluator(ctx, d)
	var tuples []relational.Tuple
	for _, c := range cands {
		ok := c.certain
		if !ok {
			ok, err = ev.decide(c.witnesses)
			if err != nil {
				return Result{}, err
			}
		}
		if ok {
			tuples = append(tuples, c.tuple)
		}
	}
	if q.IsBoolean() {
		res.Boolean = len(tuples) > 0
		return res, nil
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Compare(tuples[j]) < 0 })
	res.Tuples = tuples
	return res, nil
}

// PossibleCtx computes the possible (brave) answers of q on d: the tuples
// answering q in at least one repair — exactly the candidates with a live
// witness, since a witness's constraints are satisfiable by construction
// and groups are chosen independently.
func (e *Engine) PossibleCtx(ctx context.Context, d *relational.Instance, q *query.Q) ([]relational.Tuple, error) {
	cands, err := e.collect(ctx, d, q)
	if err != nil {
		return nil, err
	}
	var tuples []relational.Tuple
	for _, c := range cands {
		if c.certain || len(c.witnesses) > 0 {
			tuples = append(tuples, c.tuple)
		}
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Compare(tuples[j]) < 0 })
	return tuples, nil
}

// collect enumerates the candidate assignments of every disjunct over d and
// builds their witnesses. Candidates whose every witness died (the
// assignment holds in no repair) are kept with an empty witness list — they
// are neither possible nor certain.
func (e *Engine) collect(ctx context.Context, d *relational.Instance, q *query.Q) (map[string]*cand, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e.stats.FullPasses++
	ev := e.newEvaluator(ctx, d)
	cands := map[string]*cand{}
	for _, disj := range q.Disjuncts {
		var stop error
		query.ForEachAssignment(d, disj, func(subst term.Subst) bool {
			if err := ev.tick(); err != nil {
				stop = err
				return false
			}
			key := ev.headKey(q.Head, subst)
			c := cands[string(key)]
			if c == nil {
				c = &cand{tuple: projectHead(q.Head, subst)}
				cands[string(key)] = c
			}
			if c.certain {
				// Further witnesses can't change either answer; keep
				// enumerating only because other candidates may follow.
				return true
			}
			w, alive := ev.buildWitness(disj, subst)
			switch {
			case !alive:
			case w.free():
				c.certain, c.witnesses = true, nil
			default:
				c.witnesses = append(c.witnesses, w)
			}
			return true
		})
		if stop != nil {
			return nil, stop
		}
	}
	return cands, nil
}

// buildWitness folds one assignment into a witness, nil when the
// assignment holds in every repair. alive is false when the assignment
// holds in no repair: a positive literal requires two different classes of
// one group, a negated literal hits a true fact, or a negated literal's
// group has every class excluded.
func (ev *evaluator) buildWitness(disj query.Conj, subst term.Subst) (*witness, bool) {
	var w *witness
	// Positive literals: each inconsistent fact requires its own class.
	for _, l := range disj.Lits {
		if l.Neg {
			continue
		}
		st, g, ck := ev.e.classify(ev.ground(l.Atom, subst))
		if st != Inconsistent {
			continue
		}
		if w == nil {
			w = &witness{}
		}
		if w.req == nil {
			w.req = map[*group]string{}
		}
		if prev, ok := w.req[g]; ok {
			if prev != ck {
				return nil, false
			}
			continue
		}
		w.req[g] = ck
	}
	// Negated literals: a ground fact absent from D is absent from every
	// repair (repairs never insert); a true fact is present in every
	// repair; an inconsistent fact must have its class deselected.
	for _, l := range disj.Lits {
		if !l.Neg {
			continue
		}
		u := ev.ground(l.Atom, subst)
		if !ev.d.Has(u) {
			continue
		}
		st, g, ck := ev.e.classify(u)
		if st != Inconsistent {
			return nil, false
		}
		if w == nil {
			w = &witness{}
		}
		if r, ok := w.req[g]; ok {
			if r == ck {
				return nil, false
			}
			continue // the required class already excludes ck
		}
		if w.exc == nil {
			w.exc = map[*group]map[string]bool{}
		}
		ex := w.exc[g]
		if ex == nil {
			ex = map[string]bool{}
			w.exc[g] = ex
		}
		ex[ck] = true
		if len(ex) == len(g.classes) {
			return nil, false
		}
	}
	return w, true
}

// ground instantiates an atom under a complete assignment into the
// evaluator's scratch tuple: the fact is valid until the next call.
func (ev *evaluator) ground(a term.Atom, subst term.Subst) relational.Fact {
	ev.args = ev.args[:0]
	for _, t := range a.Args {
		v, _ := subst.Apply(t)
		ev.args = append(ev.args, v)
	}
	return relational.Fact{Pred: a.Pred, Args: ev.args}
}

// headKey encodes the head projection of an assignment into the
// evaluator's scratch buffer, as the projected tuple's Key: the encoding is
// valid until the next call.
func (ev *evaluator) headKey(head []string, subst term.Subst) []byte {
	ev.key = ev.key[:0]
	for _, v := range head {
		ev.key = subst[v].AppendKey(ev.key)
	}
	return ev.key
}

// decide reports whether one candidate's witnesses cover every class
// choice, charging the candidate's covers nodes against the state budget
// afresh: the budget bounds the branching of a single candidate, so no
// polynomial workload trips it however many candidates it has.
func (ev *evaluator) decide(ws []*witness) (bool, error) {
	ev.nodes = 0
	return ev.covers(ws)
}

// covers decides whether the witnesses jointly hold under every class
// choice: pick a group mentioned by the first witness, branch over its
// classes, restrict, recurse. Each level eliminates one group from every
// witness, so the depth is bounded by the groups entangled by this
// candidate; a witness free of constraints ends a branch immediately.
func (ev *evaluator) covers(ws []*witness) (bool, error) {
	if err := ev.tick(); err != nil {
		return false, err
	}
	if ev.nodes++; ev.nodes > ev.maxNodes {
		return false, repair.ErrStateLimit
	}
	if len(ws) == 0 {
		return false, nil
	}
	var g *group
	for cand := range ws[0].req {
		g = cand
		break
	}
	if g == nil {
		for cand := range ws[0].exc {
			g = cand
			break
		}
	}
	if g == nil {
		return true, nil // ws[0] is constraint-free
	}
	for ck := range g.classes {
		sub, settled := restrict(ws, g, ck)
		if settled {
			continue
		}
		ok, err := ev.covers(sub)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// restrict specializes the witnesses to the choice "group g keeps class
// ck", dropping dead witnesses and g's constraints from survivors. settled
// is true when some survivor became constraint-free (the branch is covered
// without recursion).
func restrict(ws []*witness, g *group, ck string) (sub []*witness, settled bool) {
	for _, w := range ws {
		if r, ok := w.req[g]; ok {
			if r != ck {
				continue
			}
		} else if ex, ok := w.exc[g]; ok {
			if ex[ck] {
				continue
			}
		} else {
			if w.free() {
				return nil, true
			}
			sub = append(sub, w)
			continue
		}
		nw := w.without(g)
		if nw.free() {
			return nil, true
		}
		sub = append(sub, nw)
	}
	return sub, false
}

// without copies the witness minus any constraint on g.
func (w *witness) without(g *group) *witness {
	nw := &witness{}
	for k, v := range w.req {
		if k == g {
			continue
		}
		if nw.req == nil {
			nw.req = map[*group]string{}
		}
		nw.req[k] = v
	}
	for k, v := range w.exc {
		if k == g {
			continue
		}
		if nw.exc == nil {
			nw.exc = map[*group]map[string]bool{}
		}
		nw.exc[k] = v
	}
	return nw
}

// projectHead materializes the head projection of an assignment.
func projectHead(head []string, subst term.Subst) relational.Tuple {
	out := make(relational.Tuple, len(head))
	for j, v := range head {
		out[j] = subst[v]
	}
	return out
}
