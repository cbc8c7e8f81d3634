package wire

// Request and response bodies of the cqad HTTP API. They live here, next to
// the payload types they embed, so CLI clients, the daemon, and tests share
// one schema definition — in particular the engine-selection fields accept
// exactly the names of the internal/engine registry (search, program,
// cautious, direct, auto).

// CreateSessionRequest creates one session within a tenant.
type CreateSessionRequest struct {
	// Name identifies the session within its tenant.
	Name string `json:"name"`
	// Instance and Constraints load structured wire documents;
	// InstanceText and ConstraintsText accept parser-syntax source
	// instead. Exactly one form of each must be present (constraints may
	// be omitted entirely for an unconstrained session).
	Instance        *Instance      `json:"instance,omitempty"`
	InstanceText    string         `json:"instance_text,omitempty"`
	Constraints     *ConstraintSet `json:"constraints,omitempty"`
	ConstraintsText string         `json:"constraints_text,omitempty"`
	// Engine (an internal/engine registry name) and the shedding budgets
	// configure every request served by this session. Workers is accepted
	// and ignored: every engine runs on the request's goroutine.
	Engine        string `json:"engine,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	MaxStates     int    `json:"max_states,omitempty"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
}

// CreateSessionResponse acknowledges session creation. Engine reports the
// resolved engine: a session created with "auto" answers with the concrete
// engine the constraint analysis picked (direct or search).
type CreateSessionResponse struct {
	Tenant      string `json:"tenant"`
	Name        string `json:"name"`
	Facts       int    `json:"facts"`
	Constraints int    `json:"constraints"`
	Consistent  bool   `json:"consistent"`
	Engine      string `json:"engine"`
}

// ApplyRequest applies one update to a session.
type ApplyRequest struct {
	// Delta is the structured update; InsertText/DeleteText accept
	// parser-syntax fact lists instead (all three combine additively).
	Delta      *Delta `json:"delta,omitempty"`
	InsertText string `json:"insert_text,omitempty"`
	DeleteText string `json:"delete_text,omitempty"`
}

// QueryRequest answers one query against a session.
type QueryRequest struct {
	// Query is parser-syntax source.
	Query string `json:"query"`
	// Semantics selects certain (default) or possible (brave) answers.
	Semantics string `json:"semantics,omitempty"`
	// Engine overrides the session's engine for this request only, with
	// any registry name (including direct and auto). An override answers
	// from a throwaway session over the current head, under the session's
	// budgets: correct, but without the session's caches. Workers is
	// accepted and ignored.
	Engine  string `json:"engine,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// PrepareRequest registers a standing query with a session.
type PrepareRequest struct {
	Query string `json:"query"`
}
