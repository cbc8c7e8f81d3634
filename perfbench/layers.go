package main

import (
	"math"
)

// layerInputs are the three passes of a traced run.
type layerInputs struct {
	e2e    *e2eResult
	bare   *passResult
	traced *passResult
}

// perOp sums the non-probe spans called name per measured op of class c
// ("" for every class), in op order.
func perOp(spans []span, name, c string) []float64 {
	sums := map[int]float64{}
	var order []int
	for i := range spans {
		s := &spans[i]
		if s.Probe || s.Op < 0 || s.Name != name || (c != "" && s.Class != c) {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sums[s.Op] += s.ms()
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = sums[id]
	}
	return out
}

// perSetup sums the spans called name per session creation.
func (x *layerInputs) perSetup(name string) []float64 {
	var out []float64
	for _, spans := range x.traced.setup {
		sum, seen := 0.0, false
		for i := range spans {
			if spans[i].Name == name {
				sum += spans[i].ms()
				seen = true
			}
		}
		if seen {
			out = append(out, sum)
		}
	}
	return out
}

// med0 reads 0 for a layer the workload never calls, as mean does.
func med0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (x *layerInputs) spans() []span { return x.traced.tr.spans }

func (x *layerInputs) sample(name string) []float64 { return x.traced.pr.samples[name] }

func (x *layerInputs) countOf(name string) []float64 { return x.traced.pr.counts[name] }

// applyStat averages f over the measured applies of class c (or every
// apply when all is set).
func (x *layerInputs) applyStat(c class, all bool, f func(i int) float64) float64 {
	var xs []float64
	for i, cl := range x.traced.classes {
		if all || cl == c {
			xs = append(xs, f(i))
		}
	}
	return mean(xs)
}

// overheadPct is the class-weighted op p50 of the traced pass over the
// bare one, minus one, in percent.
func (x *layerInputs) overheadPct() float64 {
	on, off := 0.0, 0.0
	for c := class(0); c < numClasses; c++ {
		n := float64(len(x.bare.lat[c]))
		on += n * med0(x.traced.lat[c])
		off += n * med0(x.bare.lat[c])
	}
	return 100 * (on/off - 1)
}

// sessionExplained is the mirror probe time of class c over its session
// span time, in percent.
func (x *layerInputs) sessionExplained(c class) float64 {
	sess := 0.0
	for _, name := range []string{"session.apply", "session.violations", "session.answer"} {
		for _, v := range perOp(x.spans(), name, c.String()) {
			sess += v
		}
	}
	if sess == 0 {
		return 0
	}
	return 100 * x.traced.pr.mirror[c] / sess
}

// opExplained is, over the classes, the lowest share of the op span that
// the wire, parser and session spans' self times cover, in percent.
func (x *layerInputs) opExplained() float64 {
	self, opMS, opClass := selfTimes(x.spans())
	lowest := 100.0
	for c := class(0); c < numClasses; c++ {
		op, glue := 0.0, 0.0
		for id, cl := range opClass {
			if cl == c.String() {
				op += opMS[id]
				glue += self[id]["op"]
			}
		}
		if op > 0 {
			lowest = math.Min(lowest, 100*(op-glue)/op)
		}
	}
	return lowest
}

const us = 1000 // ms → µs

// layers are the per-layer metrics of --trace 1, in BENCHMARK.json order.
// Each reads 0 on a workload whose engine never calls the layer.
var layers = []struct {
	name, unit string
	get        func(x *layerInputs) float64
}{
	{"cqad.overhead_query_ms", "ms", func(x *layerInputs) float64 {
		return med0(x.e2e.lat[adhocQuery]) - med0(x.bare.lat[adhocQuery])
	}},
	{"cqad.overhead_apply_relevant_ms", "ms", func(x *layerInputs) float64 {
		return med0(x.e2e.lat[applyRelevant]) - med0(x.bare.lat[applyRelevant])
	}},
	{"cqad.overhead_apply_irrelevant_ms", "ms", func(x *layerInputs) float64 {
		return med0(x.e2e.lat[applyIrrelevant]) - med0(x.bare.lat[applyIrrelevant])
	}},
	{"wire.decode_us", "us", func(x *layerInputs) float64 { return us * med0(perOp(x.spans(), "wire.decode", "")) }},
	{"wire.encode_us", "us", func(x *layerInputs) float64 { return us * med0(perOp(x.spans(), "wire.encode", "")) }},
	{"wire.response_bytes", "B", func(x *layerInputs) float64 { return mean(x.traced.respBytes) }},
	{"wire.instance_decode_ms", "ms", func(x *layerInputs) float64 { return med0(x.perSetup("wire.instance_decode")) }},
	{"parser.query_us", "us", func(x *layerInputs) float64 {
		return us * med0(perOp(x.spans(), "parser.query", adhocQuery.String()))
	}},
	{"parser.facts_us", "us", func(x *layerInputs) float64 { return us * med0(perOp(x.spans(), "parser.facts", "")) }},
	{"parser.instance_ms", "ms", func(x *layerInputs) float64 { return med0(x.perSetup("parser.instance")) }},
	{"session.new_ms", "ms", func(x *layerInputs) float64 { return med0(x.perSetup("session.new")) }},
	{"session.prepare_ms", "ms", func(x *layerInputs) float64 { return med0(x.perSetup("session.prepare")) }},
	{"session.apply_relevant_ms", "ms", func(x *layerInputs) float64 {
		return med0(perOp(x.spans(), "session.apply", applyRelevant.String()))
	}},
	{"session.apply_irrelevant_ms", "ms", func(x *layerInputs) float64 {
		return med0(perOp(x.spans(), "session.apply", applyIrrelevant.String()))
	}},
	{"session.answer_ms", "ms", func(x *layerInputs) float64 {
		return med0(perOp(x.spans(), "session.answer", adhocQuery.String()))
	}},
	{"session.reenumerated_share", "ratio", func(x *layerInputs) float64 {
		return x.applyStat(applyRelevant, false, func(i int) float64 { return b2f(x.traced.applies[i].Reenumerated) })
	}},
	{"session.repairs_invalidated", "count", func(x *layerInputs) float64 {
		return x.applyStat(applyRelevant, false, func(i int) float64 { return float64(x.traced.applies[i].RepairsInvalidated) })
	}},
	{"session.queries_refreshed", "count", func(x *layerInputs) float64 {
		return x.applyStat(0, true, func(i int) float64 { return float64(x.traced.applies[i].QueriesRefreshed) })
	}},
	{"session.queries_skipped", "count", func(x *layerInputs) float64 {
		return x.applyStat(0, true, func(i int) float64 { return float64(x.traced.applies[i].QueriesSkipped) })
	}},
	{"session.age_slowdown", "ratio", func(x *layerInputs) float64 {
		return ageSlowdown(perOp(x.spans(), "session.apply", applyRelevant.String()))
	}},
	{"relational.scan_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("relational.scan_ms")) }},
	{"relational.facts", "count", func(x *layerInputs) float64 { return float64(x.traced.pr.sess.Current().Len()) }},
	{"nullsem.update_us", "us", func(x *layerInputs) float64 { return us * med0(x.sample("nullsem.update_us")) }},
	{"nullsem.check_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("nullsem.check_ms")) }},
	{"nullsem.violations", "count", func(x *layerInputs) float64 { return float64(len(x.traced.pr.sess.Violations())) }},
	{"repair.enumerate_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("repair.enumerate_ms")) }},
	{"repair.repairs", "count", func(x *layerInputs) float64 { return mean(x.countOf("repair.repairs")) }},
	{"repair.states", "count", func(x *layerInputs) float64 { return mean(x.countOf("repair.states")) }},
	{"repair.minimal_share", "ratio", func(x *layerInputs) float64 {
		leaves := mean(x.countOf("repair.leaves"))
		if leaves == 0 {
			return 0
		}
		return mean(x.countOf("repair.repairs")) / leaves
	}},
	{"query.base_eval_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("query.base_eval_ms")) }},
	{"query.patch_us", "us", func(x *layerInputs) float64 { return us * med0(x.sample("query.patch_us")) }},
	{"direct.new_ms", "ms", func(x *layerInputs) float64 { return med0(x.traced.directNew) }},
	{"direct.update_us", "us", func(x *layerInputs) float64 { return us * med0(x.sample("direct.update_us")) }},
	{"direct.certain_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("direct.certain_ms")) }},
	{"direct.delta_facts", "count", func(x *layerInputs) float64 {
		if d := x.traced.pr.dir; d != nil {
			return float64(d.Stats().DeltaFacts)
		}
		return 0
	}},
	{"repairprog.build_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("repairprog.build_ms")) }},
	{"ground.base_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("ground.base_ms")) }},
	{"ground.extend_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("ground.extend_ms")) }},
	{"ground.atoms", "count", func(x *layerInputs) float64 { return mean(x.countOf("ground.atoms")) }},
	{"ground.rules", "count", func(x *layerInputs) float64 { return mean(x.countOf("ground.rules")) }},
	{"stable.enumerate_ms", "ms", func(x *layerInputs) float64 { return med0(x.sample("stable.enumerate_ms")) }},
	{"stable.models", "count", func(x *layerInputs) float64 { return mean(x.countOf("stable.models")) }},
	{"trace.overhead_pct", "%", func(x *layerInputs) float64 { return x.overheadPct() }},
	{"trace.session_explained_pct.apply_relevant", "%", func(x *layerInputs) float64 { return x.sessionExplained(applyRelevant) }},
	{"trace.session_explained_pct.apply_irrelevant", "%", func(x *layerInputs) float64 { return x.sessionExplained(applyIrrelevant) }},
	{"trace.session_explained_pct.query", "%", func(x *layerInputs) float64 { return x.sessionExplained(adhocQuery) }},
	{"trace.op_explained_pct", "%", func(x *layerInputs) float64 { return x.opExplained() }},
}

func layerMetrics(e2e *e2eResult, bare, traced *passResult) map[string]metric {
	x := &layerInputs{e2e: e2e, bare: bare, traced: traced}
	m := map[string]metric{}
	for _, l := range layers {
		m[l.name] = metric{Value: l.get(x), Unit: l.unit}
	}
	return m
}
