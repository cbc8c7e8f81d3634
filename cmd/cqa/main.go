// Command cqa checks consistency, enumerates repairs, and computes
// consistent query answers for a database instance and a set of integrity
// constraints, under the null-aware semantics of Bravo & Bertossi
// (EDBT 2006).
//
// Usage:
//
//	cqa -db db.facts -ic constraints.ic check
//	cqa -db db.facts -ic constraints.ic repairs [-classic] [-engine search|program]
//	cqa -db db.facts -ic constraints.ic answers -query query.q [-engine search|program|cautious|direct|auto]
//	cqa -db db.facts -ic constraints.ic semantics
//	cqa -db db.facts -ic constraints.ic -session script.txt [-engine ...]
//
// -engine selects from the registry of internal/engine: search and program
// materialize repairs; cautious answers by cautious stable-model reasoning;
// direct answers FD-only constraint sets from a repair-less polynomial
// classification (internal/direct) and rejects anything broader; auto picks
// direct when the set is FD-only and search otherwise.
//
// -session runs a line-oriented update script (query / insert / delete
// commands) against one persistent session: standing queries are prepared
// once and each update advances the shared repair state in O(|Δ|),
// printing the answer diffs it causes (see internal/session).
//
// -json switches the answers and session commands to the JSON wire schema
// of internal/wire — one compact document per line, byte-identical to what
// the cqad daemon serves for the same requests.
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the whole
// command, for bottleneck hunts without an ad-hoc harness.
//
// Input files use the syntax of internal/parser (upper-case identifiers are
// variables; null is the null constant). The -db and -ic flags also accept
// inline text when the argument contains a newline or parenthesis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/constraint"
	"repro/internal/depgraph"
	"repro/internal/engine"
	"repro/internal/nullsem"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/session"
	"repro/internal/stable"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cqa:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("cqa", flag.ContinueOnError)
	dbArg := fs.String("db", "", "database instance (file path or inline facts)")
	icArg := fs.String("ic", "", "integrity constraints (file path or inline)")
	queryArg := fs.String("query", "", "query (file path or inline), for the answers command")
	sessionArg := fs.String("session", "", "session update script (file of query/insert/delete lines)")
	engineFlag := fs.String("engine", "search", "CQA engine: "+strings.Join(engine.Names(), " | "))
	jsonOut := fs.Bool("json", false, "emit results as JSON wire documents (answers and session commands)")
	classic := fs.Bool("classic", false, "use the classic [2] repair semantics (repairs command, search engine)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (taken after the command, post-GC) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	cmd := ""
	switch {
	case *sessionArg != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("-session is a command of its own: drop %q", fs.Arg(0))
		}
		cmd = "session"
	case fs.NArg() != 1:
		return fmt.Errorf("expected exactly one command: check | repairs | answers | semantics (or -session script)")
	default:
		cmd = fs.Arg(0)
	}

	if _, ok := engine.Lookup(*engineFlag); !ok {
		return fmt.Errorf("-engine: %w", &engine.UnknownError{Name: *engineFlag})
	}
	if *engineFlag != "search" && cmd != "repairs" && cmd != "answers" && cmd != "session" {
		return fmt.Errorf("-engine only applies to the repairs, answers, and session commands")
	}
	if *classic && cmd != "repairs" {
		return fmt.Errorf("-classic only applies to the repairs command")
	}
	if *jsonOut && cmd != "answers" && cmd != "session" {
		return fmt.Errorf("-json only applies to the answers and session commands")
	}
	if *dbArg == "" || *icArg == "" {
		return fmt.Errorf("-db and -ic are required")
	}
	d, err := loadInstance(*dbArg)
	if err != nil {
		return fmt.Errorf("loading -db: %w", err)
	}
	set, err := loadConstraints(*icArg)
	if err != nil {
		return fmt.Errorf("loading -ic: %w", err)
	}

	switch cmd {
	case "check":
		return cmdCheck(d, set)
	case "repairs":
		return cmdRepairs(d, set, *engineFlag, *classic)
	case "answers":
		if *queryArg == "" {
			return fmt.Errorf("-query is required for the answers command")
		}
		q, err := loadQuery(*queryArg)
		if err != nil {
			return fmt.Errorf("loading -query: %w", err)
		}
		return cmdAnswers(d, set, q, *engineFlag, *jsonOut)
	case "semantics":
		return cmdSemantics(d, set)
	case "session":
		return cmdSession(d, set, *sessionArg, *engineFlag, *jsonOut)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// emitJSON writes one compact wire document per line, exactly as the cqad
// daemon serializes the same type — which is what makes CLI and HTTP
// outputs byte-comparable.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(v)
}

// loadText treats the argument as inline text if it looks like source,
// otherwise as a file path.
func loadText(arg string) (string, error) {
	if strings.ContainsAny(arg, "(\n") {
		return arg, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func loadInstance(arg string) (*relational.Instance, error) {
	src, err := loadText(arg)
	if err != nil {
		return nil, err
	}
	return parser.Instance(src)
}

func loadConstraints(arg string) (*constraint.Set, error) {
	src, err := loadText(arg)
	if err != nil {
		return nil, err
	}
	return parser.Constraints(src)
}

func loadQuery(arg string) (*query.Q, error) {
	src, err := loadText(arg)
	if err != nil {
		return nil, err
	}
	return parser.Query(src)
}

func cmdCheck(d *relational.Instance, set *constraint.Set) error {
	fmt.Printf("instance: %d facts, %d constraints (%d ICs, %d NNCs)\n",
		d.Len(), len(set.ICs)+len(set.NNCs), len(set.ICs), len(set.NNCs))
	fmt.Printf("RIC-acyclic: %v, non-conflicting: %v, Theorem 5 HCF condition: %v\n",
		depgraph.RICAcyclic(set), set.NonConflicting(), repairprog.GuaranteedHCF(set))
	rep := nullsem.Check(d, set, nullsem.NullAware)
	if rep.Consistent() {
		fmt.Println("D |=_N IC: consistent")
		return nil
	}
	fmt.Printf("D |=_N IC: INCONSISTENT (%d IC violations, %d NNC violations)\n",
		len(rep.IC), len(rep.NNC))
	fmt.Println(rep)
	return nil
}

func cmdRepairs(d *relational.Instance, set *constraint.Set, name string, classic bool) error {
	if spec, ok := engine.Lookup(name); ok && !spec.Repairs {
		return fmt.Errorf("-engine %s never materializes repairs: the repairs command wants search or program", name)
	}
	switch name {
	case "program":
		if classic {
			return fmt.Errorf("-classic requires -engine search (the program engine implements only the null-based semantics)")
		}
		tr, err := repairprog.Build(d, set, repairprog.VariantCorrected)
		if err != nil {
			return err
		}
		insts, models, err := tr.StableRepairs(stable.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%d stable models, %d distinct repairs:\n", len(models), len(insts))
		for i, r := range insts {
			fmt.Printf("repair %d: %s\n         Δ = %s\n", i+1, r, relational.Diff(d, r))
		}
		return nil
	case "search":
		var opts repair.Options
		if classic {
			opts.Mode = repair.Classic
		}
		res, err := repair.RepairsD(d, set, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%d repairs (%s mode, %d states explored):\n",
			len(res.Repairs), opts.Mode, res.StatesExplored)
		for i, r := range res.Repairs {
			fmt.Printf("repair %d: %s\n         Δ = %s\n", i+1, r, res.Deltas[i])
		}
		return nil
	default:
		return fmt.Errorf("unknown -engine %q for the repairs command: want search or program", name)
	}
}

func cmdAnswers(d *relational.Instance, set *constraint.Set, q *query.Q, engineName string, jsonOut bool) error {
	opts, err := engine.Options(engineName, 0)
	if err != nil {
		return err
	}
	ans, err := session.New(d, set, opts).Answer(q)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(wire.AnswerResponse{Query: q.String(), Answer: wire.FromAnswer(ans)})
	}
	fmt.Printf("query: %s\n", q)
	fmt.Printf("repairs inspected: %d\n", ans.NumRepairs)
	if q.IsBoolean() {
		fmt.Printf("consistent answer: %v\n", ans.Boolean)
		return nil
	}
	fmt.Printf("consistent answers: %d\n", len(ans.Tuples))
	for _, t := range ans.Tuples {
		fmt.Println("  " + t.String())
	}
	return nil
}

func cmdSemantics(d *relational.Instance, set *constraint.Set) error {
	fmt.Println("satisfaction under each implemented semantics:")
	for _, sem := range nullsem.AllSemantics() {
		ok := nullsem.Satisfies(d, set, sem)
		status := "consistent"
		if !ok {
			status = "INCONSISTENT"
		}
		fmt.Printf("  %-14s %s\n", sem.String()+":", status)
	}
	return nil
}
