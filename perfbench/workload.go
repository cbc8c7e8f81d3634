package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/fdgen"
	"repro/internal/nullsem"
	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/value"
	"repro/internal/wire"
)

// class is an op class. Every class has exactly one op template per
// workload, so a class's latencies come from one kind of work.
type class uint8

const (
	applyRelevant class = iota
	applyIrrelevant
	adhocQuery
	numClasses
)

var classNames = [numClasses]string{"apply_relevant", "apply_irrelevant", "query"}

func (c class) String() string { return classNames[c] }

// path returns the cqad endpoint (relative to the session URL) an op of
// this class posts to.
func (c class) path() string {
	if c == adhocQuery {
		return "/query"
	}
	return "/apply"
}

// op is one request of the stream: the JSON body cqad receives (the
// in-process replay decodes the very same bytes) and the response the
// workload's construction predicts.
type op struct {
	class class
	body  []byte
	want  expect
}

// expect is what a correct response to one op carries beyond what its
// class implies.
type expect struct {
	updates []wantUpdate // applies, in standing-query registration order
	tuples  [][]string   // queries: certain answers, rendered as strings
}

// wantUpdate is one standing-query diff an apply must push.
type wantUpdate struct {
	query          int // index into workload.standing
	added, removed [][]string
}

// standingQuery is a query prepared at session creation, with the number
// of certain answers it must report right after preparation.
type standingQuery struct {
	text    string
	answers int
}

// workload is one fully generated benchmark input: the create request,
// the standing queries and the op stream, plus the invariants every
// response is checked against.
type workload struct {
	name     string
	engine   string // engine named in the create request
	resolved string // engine cqad must report for the session

	create   wire.CreateSessionRequest // Name is set per creation
	standing []standingQuery

	facts      int // |D|, at creation and at every period boundary
	violations int // maintained violation count after every op
	repairs    int // num_repairs of every certain answer

	// constrained lists the constraint relations, for the scan probe.
	constrained []relational.RelKey

	setups int  // sessions created per run; setup_s is their median
	period int  // ops per schedule period
	warmup []op // whole periods, not measured
	ops    []op // whole periods, measured
}

// spec is a workload definition. The seed picks keys and constants only:
// the class pattern, each template's batch size, the violation count and
// the repair count are fixed here.
type spec struct {
	name string
	why  string
	// pattern is one schedule period. Each apply class appears an even
	// number of times: the first of a pair inserts (or swaps out) a fresh
	// fact, the second undoes it, so contents return to the start at
	// every period boundary while fresh facts keep the session ageing.
	pattern []class
	// rate is the nominal measured ops per second on a 2-vCPU Xeon VM;
	// --seconds × rate fixes the op count. It converts the time budget
	// into a count once, so a run is never cut by a clock and both sides
	// of a comparison run the same ops.
	rate float64
	// setups is how many sessions a run creates; setup_s is their median
	// and the last one is driven by the op stream.
	setups      int
	gen         func(s sizes, seed int64) *generator
	full, small sizes
}

// sizes scales a workload. Only the fields a workload reads matter.
type sizes struct {
	rows, unconstrained, conflicts     int // fd-live
	depts, emps, projs, fdConf, fkConf int // mixed-stream, cautious-reads
}

// warmPeriods is the number of unmeasured periods before timing.
const warmPeriods = 2

const (
	R = applyRelevant
	I = applyIrrelevant
	Q = adhocQuery
)

var specs = []spec{
	{
		name:    "fd-live",
		why:     "FD-only fdgen instance of tens of MB under engine auto (direct): direct classification and the HTTP/wire path do the work, repair/ground/stable never run",
		pattern: []class{R, Q, I, Q, R, Q, I, Q},
		rate:    23,
		setups:  5,
		gen:     genFD,
		full:    sizes{rows: 20000, unconstrained: 10000, conflicts: 100},
		small:   sizes{rows: 200, unconstrained: 100, conflicts: 2},
	},
	{
		name:    "mixed-stream",
		why:     "FD+FK+NOT NULL set on search with 32 repairs, write-heavy text requests: nullsem, seeded repair re-enumeration and BaseEval patching do the work",
		pattern: []class{R, I, R, I, Q, R, I, R, I, Q},
		rate:    63,
		setups:  15,
		gen:     genHR("search", true),
		full:    sizes{depts: 200, emps: 2000, projs: 1000, fdConf: 3, fkConf: 2},
		small:   sizes{depts: 12, emps: 40, projs: 20, fdConf: 2, fkConf: 1},
	},
	{
		name:    "cautious-reads",
		why:     "same FD+FK+NOT NULL shape at ~600 facts on engine cautious, read-heavy: repairprog, ground and stable do nearly all the work, HTTP is ~1%",
		pattern: []class{Q, Q, R, Q, Q, I, Q, Q, R, Q, Q, I},
		rate:    33,
		setups:  25,
		gen:     genHR("cautious", false),
		full:    sizes{depts: 80, emps: 320, projs: 160, fdConf: 3, fkConf: 2},
		small:   sizes{depts: 4, emps: 8, projs: 4, fdConf: 1, fkConf: 1},
	},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q: want one of %s", name, strings.Join(names, ", "))
}

// measuredOps converts the --seconds budget into a whole number of
// periods.
func (s spec) measuredOps(seconds int) int {
	n := int(math.Ceil(float64(seconds) * s.rate / float64(len(s.pattern))))
	if n < 1 {
		n = 1
	}
	return n * len(s.pattern)
}

// build generates the workload for seed with the given measured op count.
func (s spec) build(sz sizes, seed int64, measured int) *workload {
	g := s.gen(sz, seed)
	w := g.w
	w.name = s.name
	w.setups = s.setups
	w.period = len(s.pattern)
	for i := 0; i < warmPeriods*len(s.pattern); i++ {
		w.warmup = append(w.warmup, g.next(s.pattern[i%len(s.pattern)]))
	}
	for i := 0; i < measured; i++ {
		w.ops = append(w.ops, g.next(s.pattern[i%len(s.pattern)]))
	}
	return w
}

// generator produces the op stream of one workload. Each apply class keeps
// one pending half: the next op of the class undoes it.
type generator struct {
	w       *workload
	rng     *rand.Rand
	fresh   int
	pending [numClasses]*half
	// make builds the first half of a pair (the second is its inverse).
	make   [numClasses]func() (relational.Delta, []wantUpdate)
	query  func() (string, [][]string)
	encode func(dl relational.Delta) []byte
}

// half is the first half of an apply pair and the diffs it pushes.
type half struct {
	dl  relational.Delta
	ups []wantUpdate
}

func (g *generator) freshID() int {
	g.fresh++
	return g.fresh
}

func (g *generator) next(c class) op {
	if c == adhocQuery {
		text, tuples := g.query()
		body, _ := json.Marshal(wire.QueryRequest{Query: text})
		return op{class: c, body: body, want: expect{tuples: tuples}}
	}
	if p := g.pending[c]; p != nil {
		g.pending[c] = nil
		var ups []wantUpdate
		for _, u := range p.ups {
			ups = append(ups, wantUpdate{query: u.query, added: u.removed, removed: u.added})
		}
		back := relational.Delta{Added: p.dl.Removed, Removed: p.dl.Added}
		return op{class: c, body: g.encode(back), want: expect{updates: ups}}
	}
	dl, ups := g.make[c]()
	g.pending[c] = &half{dl, ups}
	return op{class: c, body: g.encode(dl), want: expect{updates: ups}}
}

// encodeStructured renders an apply as a structured wire delta.
func encodeStructured(dl relational.Delta) []byte {
	d := wire.FromDelta(dl)
	body, _ := json.Marshal(wire.ApplyRequest{Delta: &d})
	return body
}

// encodeText renders an apply as parser-syntax insert/delete text.
func encodeText(dl relational.Delta) []byte {
	body, _ := json.Marshal(wire.ApplyRequest{InsertText: factsText(dl.Added), DeleteText: factsText(dl.Removed)})
	return body
}

func factsText(fs []relational.Fact) string {
	var b strings.Builder
	for _, f := range fs {
		writeFact(&b, f)
	}
	return b.String()
}

func writeFact(b *strings.Builder, f relational.Fact) {
	b.WriteString(f.Pred)
	b.WriteByte('(')
	for i, v := range f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(parser.FormatValue(v))
	}
	b.WriteString(").\n")
}

func str(format string, args ...any) value.V { return value.Str(fmt.Sprintf(format, args...)) }

// violationCount is the number of IC violations a scratch check reports;
// the op templates keep it constant, so it is computed once here.
func violationCount(d *relational.Instance, set *constraint.Set) int {
	n := 0
	for _, ic := range set.ICs {
		n += len(nullsem.NewICChecker(ic, nullsem.NullAware).Violations(d))
	}
	return n
}

// saturatingPow2 mirrors the direct engine's saturating repair product.
func saturatingPow2(k int) int {
	if k >= 63 {
		return math.MaxInt
	}
	return 1 << k
}

// genFD builds fd-live: one fdgen relation r0(key, dep, id) whose two-row
// key groups are ~1% conflicted, plus the unconstrained s(key, val) with
// exactly one row per key group (the seed permutes which value lands on
// which group). Relevant applies insert (then delete) a fresh row agreeing
// with a clean group; irrelevant applies churn s, which standing query qb
// reads; ad-hoc queries look up one key's certain dependent value.
func genFD(sz sizes, seed int64) *generator {
	cfg := fdgen.Config{Rows: sz.rows, GroupSize: 2, Violations: sz.conflicts, Classes: 2}.Normalized()
	d, set := fdgen.Generate(cfg)
	groups := cfg.Rows / cfg.GroupSize
	rng := rand.New(rand.NewSource(seed))
	key := func(grp int) value.V { return str("k%d_0", grp) }
	for i, grp := range rng.Perm(groups)[:sz.unconstrained] {
		d.Insert(relational.F(fdgen.UnconstrainedName, key(grp), str("w%d", i)))
	}
	w := &workload{
		engine:   "auto",
		resolved: "direct",
		standing: []standingQuery{
			{text: "qa(K, V) :- r0(K, V, I).", answers: groups - cfg.Violations},
			{text: "qb(K, W) :- s(K, W), r0(K, V, I).", answers: sz.unconstrained},
		},
		facts:       d.Len(),
		violations:  violationCount(d, set),
		repairs:     saturatingPow2(cfg.Violations),
		constrained: []relational.RelKey{{Pred: fdgen.RelName(0), Arity: cfg.Arity()}},
	}
	inst := wire.FromInstance(d)
	cs := wire.FromConstraints(set)
	w.create = wire.CreateSessionRequest{Instance: &inst, Constraints: &cs, Engine: w.engine}

	g := &generator{w: w, rng: rng, encode: encodeStructured}
	g.fresh = cfg.Rows
	g.make[applyRelevant] = func() (relational.Delta, []wantUpdate) {
		grp := cfg.Violations + g.rng.Intn(groups-cfg.Violations)
		f := relational.F(fdgen.RelName(0), key(grp), value.Str("v0"), value.Int(int64(g.freshID())))
		return relational.Delta{Added: []relational.Fact{f}}, nil
	}
	g.make[applyIrrelevant] = func() (relational.Delta, []wantUpdate) {
		k, v := key(g.rng.Intn(groups)), str("w%d", g.freshID())
		f := relational.F(fdgen.UnconstrainedName, k, v)
		return relational.Delta{Added: []relational.Fact{f}}, []wantUpdate{{query: 1, added: [][]string{{render(k), render(v)}}}}
	}
	g.query = func() (string, [][]string) {
		grp := g.rng.Intn(groups)
		text := fmt.Sprintf("q(V) :- r0(%q, V, I).", fmt.Sprintf("k%d_0", grp))
		if grp < cfg.Violations {
			return text, nil
		}
		return text, [][]string{{"v0"}}
	}
	return g
}

// hrConstraints is the paper's Example 19 shape: a key on dept, a foreign
// key from emp to dept, and NOT NULL on the dept key.
const hrConstraints = `dept(D, M1), dept(D, M2) -> M1 = M2.
emp(E, D) -> dept(D, M).
dept(D, M), isnull(D) -> false.
`

// genHR builds the FD + FK + NOT NULL workloads. dept(d, m) has fdConf
// conflicted keys (two managers each) and fkConf emps reference a missing
// dept, so there are 2^(fdConf+fkConf) repairs. The structure is fixed
// (emp j works in dept j mod depts, proj row l belongs to emp l mod emps);
// the seed only permutes the names and picks among structurally identical
// keys, so every seed costs the same. Relevant applies swap the
// conflicting manager row of every conflicted dept for a fresh one and
// back, which keeps the violation and repair counts while invalidating the
// cached repairs that delete a swapped row (7 in 8 with three conflicts)
// and leaves fdConf overlay tombstones per pair; irrelevant applies churn
// proj, read by standing query q1; ad-hoc queries ask one emp's certain
// manager.
func genHR(engineName string, standing bool) func(sizes, int64) *generator {
	return func(sz sizes, seed int64) *generator {
		rng := rand.New(rand.NewSource(seed))
		deptName, empName := rng.Perm(sz.depts), rng.Perm(sz.emps)
		dept := func(i int) value.V { return str("d%d", deptName[i]) }
		emp := func(j int) value.V { return str("e%d", empName[j]) }
		d := relational.NewInstance()
		mgr := make([]value.V, sz.depts)
		for i := range mgr {
			mgr[i] = str("m%d", deptName[i])
			d.Insert(relational.F("dept", dept(i), mgr[i]))
			if i < sz.fdConf {
				d.Insert(relational.F("dept", dept(i), str("x%d", deptName[i])))
			}
		}
		q2 := 0
		for j := 0; j < sz.emps; j++ {
			d.Insert(relational.F("emp", emp(j), dept(j%sz.depts)))
			if j%sz.depts >= sz.fdConf {
				q2++
			}
		}
		for j := 0; j < sz.fkConf; j++ {
			d.Insert(relational.F("emp", str("z%d", j), str("dz%d", j)))
		}
		for l := 0; l < sz.projs; l++ {
			d.Insert(relational.F("proj", emp(l%sz.emps), str("p%d", l)))
		}
		set, err := parser.Constraints(hrConstraints)
		if err != nil {
			panic(fmt.Sprintf("perfbench: constraints: %v", err))
		}
		w := &workload{
			engine:      engineName,
			resolved:    engineName,
			facts:       d.Len(),
			violations:  violationCount(d, set),
			repairs:     1 << (sz.fdConf + sz.fkConf),
			constrained: []relational.RelKey{{Pred: "dept", Arity: 2}, {Pred: "emp", Arity: 2}},
		}
		if standing {
			w.standing = []standingQuery{
				{text: "q1(E, P) :- emp(E, D), proj(E, P).", answers: sz.projs},
				{text: "q2(E, M) :- emp(E, D), dept(D, M).", answers: q2},
			}
		}
		var src strings.Builder
		for _, f := range d.Facts() {
			writeFact(&src, f)
		}
		w.create = wire.CreateSessionRequest{InstanceText: src.String(), ConstraintsText: hrConstraints, Engine: engineName}

		g := &generator{w: w, rng: rng, encode: encodeText}
		g.make[applyRelevant] = func() (relational.Delta, []wantUpdate) {
			var dl relational.Delta
			for c := 0; c < sz.fdConf; c++ {
				dl.Removed = append(dl.Removed, relational.F("dept", dept(c), str("x%d", deptName[c])))
				dl.Added = append(dl.Added, relational.F("dept", dept(c), str("x%d_%d", deptName[c], g.freshID())))
			}
			return dl, nil
		}
		g.make[applyIrrelevant] = func() (relational.Delta, []wantUpdate) {
			e, p := emp(g.rng.Intn(sz.emps)), str("f%d", g.freshID())
			dl := relational.Delta{Added: []relational.Fact{relational.F("proj", e, p)}}
			if !standing {
				return dl, nil
			}
			return dl, []wantUpdate{{query: 0, added: [][]string{{render(e), render(p)}}}}
		}
		g.query = func() (string, [][]string) {
			j := g.rng.Intn(sz.emps)
			text := fmt.Sprintf("q(M) :- emp(%q, D), dept(D, M).", render(emp(j)))
			if j%sz.depts < sz.fdConf {
				return text, nil
			}
			return text, [][]string{{render(mgr[j%sz.depts])}}
		}
		return g
	}
}

// render is the string form answers are compared in.
func render(v value.V) string {
	if s, ok := v.AsStr(); ok {
		return s
	}
	return v.String()
}

// renderTuples renders wire tuples for comparison.
func renderTuples(ts [][]wire.Value) [][]string {
	if len(ts) == 0 {
		return nil
	}
	out := make([][]string, len(ts))
	for i, t := range ts {
		out[i] = make([]string, len(t))
		for j, v := range t {
			out[i][j] = render(v.V)
		}
	}
	return out
}

func sameTuples(got [][]wire.Value, want [][]string) bool {
	g := renderTuples(got)
	if len(g) != len(want) {
		return false
	}
	key := func(t []string) string { return strings.Join(t, "\x00") }
	gk, wk := make([]string, len(g)), make([]string, len(want))
	for i := range g {
		gk[i], wk[i] = key(g[i]), key(want[i])
	}
	sort.Strings(gk)
	sort.Strings(wk)
	for i := range gk {
		if gk[i] != wk[i] {
			return false
		}
	}
	return true
}
