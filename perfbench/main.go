// Command perfbench is the end-to-end and per-layer benchmark of the cqad
// daemon. It builds cmd/cqad from the checkout it runs in, starts it as a
// loopback subprocess, and drives one workload from one closed-loop client
// over one keep-alive connection, timing every request by op class. A
// traced mode replays the identical op stream in-process through the
// public functions of wire, parser, session and the engine packages and
// records spans, so each end-to-end number comes with where its time went.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload mixed-stream --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload mixed-stream --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --workload fd-live --seed 1 --seconds 20 --steady 10
//
// run.sh keeps the Go build cache in .bench_build and runs this package
// with go run; `cd perfbench && go run . --root .. --workload fd-live`
// does the same with the default cache. The last line of standard output
// is one JSON object with correct, attempted, failed and metrics (the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
// A wrong answer or a failed request exits 1 after that line.
//
// # Workloads
//
// Each layer that later work is likely to optimise does most of the work
// in one workload and little or none in another:
//
//   - fd-live: an FD-only fdgen relation r0 of 20k rows in 10k key groups,
//     1% of them conflicted, plus the unconstrained s (one row per group,
//     30k facts in all), engine auto (which resolves to direct), two
//     standing queries, structured wire requests (instance, delta). direct
//     and the HTTP/wire path do the work; repair, ground and stable never
//     run. The daemon's working set is ~45 MB, beyond a 4 MiB L2.
//   - mixed-stream: the paper's Example 19 shape (key on dept, FK emp →
//     dept, NOT NULL on the dept key) with ~3.2k facts, 3 key conflicts and
//     2 dangling emps, so 32 repairs throughout; engine search, two
//     standing queries, parser-syntax requests (instance_text,
//     insert_text/delete_text). Write-heavy: nullsem, seeded repair
//     re-enumeration and query patching dominate; direct, ground and
//     stable idle.
//   - cautious-reads: the same shape at 565 facts (32 repairs) under
//     engine cautious, no standing queries, read-heavy. repairprog, ground
//     and stable do nearly all the work and HTTP is ~1% of a query. It
//     exercises session by reads where mixed-stream exercises it by
//     writes. Its set-up is a millisecond, so setup_s there is the median
//     of 25 creations.
//
// Layer × workload (M = most of the work, L = little, - = idle, so its
// per-layer metrics read 0 there):
//
//	layer        fd-live  mixed-stream  cautious-reads
//	cqad / wire     M          L             L
//	parser          L          M             L
//	session         M          M             M
//	direct          M          -             -
//	nullsem         L          M             L
//	repair          -          M             -
//	query (patch)   -          M             -
//	repairprog      -          -             M
//	ground/stable   -          -             M
//	relational      M          M             L
//
// # Op stream
//
// Three op classes, one template each: a constraint-relevant apply, a
// constraint-irrelevant apply (churn of a relation no constraint
// mentions, read by a standing query where there is one) and an ad-hoc
// certain query. Applies come in pairs, insert (or swap out) a fresh fact
// then undo it, so the contents return to the start at every period
// boundary while fresh facts keep ageing the session. The seed picks keys
// and constants only, never the class pattern, the batch size, the
// violation count or the repair count. Every response is checked against
// what the workload's construction predicts: statuses, certain answers,
// num_repairs, the violation count, constraint relevance and the exact
// standing-query diffs.
//
// Three findings shaped the metrics:
//
//   - Medians over mixed op kinds flip. Constraint-irrelevant applies cost
//     ~1 ms and relevant ones tens of ms on search, so one p50 over both
//     swung 3× between identical runs. Latencies are therefore reported
//     per op class, and p90_ms is taken over all ops only because it lands
//     inside the heaviest class, which is at least 20% of every pattern.
//   - Cost drifts with session age even at constant |D|: insert-then-
//     delete leaves overlay tombstones that every Scan walks, and the
//     head's drift counter cancels the pair so re-anchoring never fires.
//     Under a fixed duration a faster build would age its session further
//     and look slower, so a run is a fixed op count (--seconds × a nominal
//     rate per workload, whole periods, warm-up excluded), identical on
//     both sides of a comparison. session.age_slowdown shows the drift.
//   - Sub-millisecond tails are noise: query p95 ranged 0.58–2.37 ms over
//     runs of one build while p50 held at 0.37–0.45 ms. Only medians and
//     p90_ms are gated; per-class p99 is printed with the number of
//     samples beyond it, ungated.
//
// # Traced mode
//
// --trace 1 first runs the end-to-end pass (for cqad.overhead_* and the
// correctness verdict), then replays the same workload, seed and op stream
// in-process twice: once bare, once with spans and probes. Spans wrap the
// calls into wire, parser and session and share an op id and class. After
// each op, probe spans (marked probe, outside the op span) time the
// engine-layer calls the session makes internally on the session's current
// state: direct.Engine.Update/CertainCtx, nullsem.ICChecker.Update and
// scratch Violations, seeded repair.EnumerateCtx + Antichain,
// query.NewBaseEval and BaseEval.DiffOn per cached repair, repairprog.BuildWith,
// BaseGrounding, GroundWithQuery and stable.EnumerateCtx. Spans stay in
// memory and are written once, as JSON, to
// .bench_build/trace/<workload>-<seed>.json; a summary prints each
// layer's self time per class. trace.overhead_pct compares the op p50 of
// the two in-process passes, and trace.session_explained_pct.<class> is
// the share of session span time the probes account for.
//
// # Per-layer metrics and the end-to-end metric each should move
//
//	metric                                  moves                         workload
//	cqad.overhead_{query,apply_*}_ms        query_p50_ms, apply_*_p50_ms  fd-live
//	wire.decode_us, wire.encode_us          query_p50_ms                  fd-live
//	wire.response_bytes                     query_p50_ms                  fd-live
//	wire.instance_decode_ms                 setup_s                       fd-live
//	parser.query_us                         query_p50_ms                  fd-live
//	parser.facts_us                         apply_*_p50_ms                mixed-stream
//	parser.instance_ms                      setup_s                       mixed-stream
//	session.new_ms, session.prepare_ms      setup_s                       all
//	session.apply_*_ms, session.answer_ms   the matching class p50        all
//	session.reenumerated_share              apply_relevant_p50_ms         mixed-stream
//	session.repairs_invalidated             apply_relevant_p50_ms         mixed-stream
//	session.queries_{refreshed,skipped}     apply_irrelevant_p50_ms       mixed-stream
//	session.age_slowdown                    apply_relevant_p50_ms         mixed-stream, fd-live
//	relational.scan_ms                      apply_relevant_p50_ms         mixed-stream
//	relational.facts                        none (guard: constant)        all
//	nullsem.update_us, nullsem.check_ms     apply_relevant_p50_ms         mixed-stream
//	nullsem.violations                      none (guard: constant)        all
//	repair.enumerate_ms                     apply_relevant_p50_ms, cpu    mixed-stream
//	repair.repairs, repair.states           same                          mixed-stream
//	repair.minimal_share                    same                          mixed-stream
//	query.base_eval_ms, query.patch_us      apply_*_p50_ms                mixed-stream
//	direct.new_ms                           setup_s                       fd-live
//	direct.update_us                        apply_*_p50_ms (small)        fd-live
//	direct.certain_ms                       apply_*_p50_ms, query_p50_ms  fd-live
//	direct.delta_facts                      none (guard: O(|Δ|))          fd-live
//	repairprog.build_ms                     query_p50_ms                  cautious-reads
//	ground.base_ms, ground.extend_ms        query_p50_ms                  cautious-reads
//	ground.atoms, ground.rules              query_p50_ms                  cautious-reads
//	stable.enumerate_ms, stable.models      query_p50_ms, cpu             cautious-reads
//	trace.overhead_pct                      none (measurement check)      all
//	trace.session_explained_pct.<class>     none (measurement check)      all
//	trace.op_explained_pct                  none (measurement check)      all
//
// Timed per-layer values are medians over the calls in the run; counts
// are means per call. trace.op_explained_pct is the lowest, over the
// classes, share of the op span covered by the self times of its wire,
// parser and session spans. cqad.overhead_* is an end-to-end class p50
// minus the bare in-process class p50; it can be negative for classes
// whose cost is far above the HTTP round trip, where the two processes'
// heaps and machine noise differ by more than the round trip itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fd-live, mixed-stream or cautious-reads")
	seed := fs.Int64("seed", 1, "seed picking keys and constants")
	seconds := fs.Int("seconds", 10, "nominal measured seconds; fixes the op count through the workload's nominal rate")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	steady := fs.Int("steady", 0, "run the workload this many times, alternating seed and seed+1, and print the spread of every end-to-end metric")
	root := fs.String("root", ".", "root of the checkout to build cmd/cqad from")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	sp, err := lookupSpec(*name)
	if err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *steady < 0 {
		return 2, fmt.Errorf("want --seconds >= 1, --trace 0 or 1, --steady >= 0")
	}
	dir, err := filepath.Abs(*root)
	if err != nil {
		return 2, err
	}
	for _, need := range []string{"go.mod", "cmd/cqad"} {
		if _, err := os.Stat(filepath.Join(dir, need)); err != nil {
			return 2, fmt.Errorf("%s is not a checkout of the repository (no %s)", dir, need)
		}
	}
	bin, err := buildCQAD(dir)
	if err != nil {
		return 2, err
	}
	measured := sp.measuredOps(*seconds)

	if *steady > 0 {
		return runSteady(bin, sp, *seed, measured, *steady)
	}
	w := sp.build(sp.full, *seed, measured)
	var res result
	if *trace == 0 {
		r, err := runE2E(bin, w)
		if r != nil {
			r.report(os.Stdout, w)
		}
		if err != nil {
			return 1, err
		}
		res.Metrics = r.metrics()
		res.Attempted, res.Failed = r.tally.totals()
	} else {
		path := filepath.Join(dir, ".bench_build", "trace", fmt.Sprintf("%s-%d.json", sp.name, *seed))
		if res, err = runTraced(bin, w, path); err != nil {
			return 1, err
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
	}
	return 0, nil
}
