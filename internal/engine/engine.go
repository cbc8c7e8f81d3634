// Package engine is the one registry of CQA engine names. The cqa CLI, the
// cqad daemon, and the public facade all used to repeat the same
// name-to-options switch; they now share this table, so adding an engine is
// one entry here plus its session implementation.
package engine

import (
	"fmt"
	"strings"

	"repro/internal/session"
)

// Spec describes one selectable engine: its wire/CLI name, the session
// engine it maps to, and its capabilities.
type Spec struct {
	// Name is the string accepted by -engine flags and wire documents.
	Name string
	// Engine is the session-layer engine the name selects.
	Engine session.Engine
	// Repairs reports whether the engine can materialize the repair set
	// (the cqa repairs command); cautious and direct never enumerate
	// repairs, and auto's choice is input-dependent.
	Repairs bool
	// Classic reports whether the engine supports the classic [2] repair
	// semantics in addition to the paper's null-based one.
	Classic bool
	// Description is a one-line summary for usage text.
	Description string
}

// specs is the registry, in documentation order. The empty name aliases
// search (the historical default) via Lookup.
var specs = []Spec{
	{
		Name:        "search",
		Engine:      session.EngineSearch,
		Repairs:     true,
		Classic:     true,
		Description: "violation-driven repair search (Sections 3-4)",
	},
	{
		Name:        "program",
		Engine:      session.EngineProgram,
		Repairs:     true,
		Description: "Definition 9 repair program, repairs from stable models (Section 5)",
	},
	{
		Name:        "cautious",
		Engine:      session.EngineProgramCautious,
		Description: "cautious stable-model reasoning over the repair program, no repairs materialized",
	},
	{
		Name:        "direct",
		Engine:      session.EngineDirect,
		Description: "repair-less polynomial classification, FD-only constraint sets",
	},
	{
		Name:        "auto",
		Engine:      session.EngineAuto,
		Description: "route by constraint class: direct when FD-only, search otherwise",
	},
}

// All returns the registry in documentation order. The slice is shared;
// callers must not mutate it.
func All() []Spec { return specs }

// Names returns every registered engine name in documentation order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Lookup resolves an engine name; the empty string means search. The second
// result reports whether the name is registered.
func Lookup(name string) (Spec, bool) {
	if name == "" {
		name = "search"
	}
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// NameOf returns the registered name for a session engine, or "" when the
// engine is not in the registry. Useful for reporting a session's resolved
// engine (EngineAuto resolves at session creation, so a live session's
// Options never carry it).
func NameOf(e session.Engine) string {
	for _, s := range specs {
		if s.Engine == e {
			return s.Name
		}
	}
	return ""
}

// UnknownError reports an engine name outside the registry, listing the
// accepted names.
type UnknownError struct {
	Name string
}

func (e *UnknownError) Error() string {
	names := Names()
	return fmt.Sprintf("unknown engine %q: want %s, or %s",
		e.Name, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}

// Options maps an engine name onto session options, so one mapping serves
// the CLI flags, the daemon's wire fields, and the facade. Unknown names
// fail with *UnknownError.
//
// workers is ignored: every engine runs on the calling goroutine. The
// parameter stays only for callers that still pass a worker count.
func Options(name string, workers int) (session.Options, error) {
	opts := session.NewOptions()
	spec, ok := Lookup(name)
	if !ok {
		return opts, &UnknownError{Name: name}
	}
	opts.Engine = spec.Engine
	return opts, nil
}
