package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/constraint"
	"repro/internal/direct"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/session"
	"repro/internal/stable"
	"repro/internal/wire"
)

// config carries the server knobs. The zero value means defaults.
type config struct {
	// SessionTTL evicts sessions idle for longer (0 disables eviction).
	SessionTTL time.Duration
	// MaxInflight caps concurrently executing expensive requests (create,
	// apply, query, prepare) per tenant; excess requests are shed with 429.
	MaxInflight int
	// MaxSessions caps live sessions per tenant.
	MaxSessions int
	// now is the clock, injectable for eviction tests.
	now func() time.Time
}

// server is the multi-tenant CQA daemon. Tenants are namespaces that share
// nothing: every value, fact key and hash in this process is
// content-addressed (internal/value has no intern table), so two tenants'
// sessions touch zero common mutable state — isolation needs no
// per-tenant locking, only the per-session mutex serializing each
// session.Session (which is not concurrent-safe by contract).
type server struct {
	cfg config
	mux *http.ServeMux

	mu      sync.Mutex
	tenants map[string]*tenant
}

func newServer(cfg config) *server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &server{cfg: cfg, mux: http.NewServeMux(), tenants: map[string]*tenant{}}
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sessions", s.handleCreate)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/sessions/{session}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/apply", s.handleApply)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/prepare", s.handlePrepare)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{session}/answers/{query}", s.handleAnswers)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{session}/subscribe", s.handleSubscribe)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// tenant is one namespace of sessions with its own load-shedding slot pool.
type tenant struct {
	name     string
	inflight chan struct{}

	mu       sync.Mutex
	sessions map[string]*liveSession
}

// acquire claims an in-flight slot without blocking; callers shed load with
// 429 when it fails.
func (t *tenant) acquire() bool {
	select {
	case t.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (t *tenant) release() { <-t.inflight }

// standing is one prepared query plus the diff its subscription recorded
// during the current apply.
type standing struct {
	q    *query.Q
	p    *session.Prepared
	diff *session.QueryUpdate
}

// liveSession wraps one session.Session behind a mutex (the session layer
// is not concurrent-safe) together with its standing queries and SSE
// subscribers.
type liveSession struct {
	tenant, name string

	mu       sync.Mutex
	s        *session.Session
	prepared map[string]*standing // keyed by query head name
	order    []*standing          // registration order, for deterministic diffs
	lastUsed time.Time
	// dropped marks a session a panic left half-updated (see locked).
	dropped bool

	subMu   sync.Mutex
	subs    map[int]chan []byte
	nextSub int
	closed  bool
}

// subscribe registers an SSE consumer. The channel is buffered; a consumer
// that falls further behind than the buffer loses the oldest pending
// events (the next full snapshot is one GET answers away).
func (ls *liveSession) subscribe() (int, chan []byte, bool) {
	ls.subMu.Lock()
	defer ls.subMu.Unlock()
	if ls.closed {
		return 0, nil, false
	}
	id := ls.nextSub
	ls.nextSub++
	ch := make(chan []byte, 64)
	ls.subs[id] = ch
	return id, ch, true
}

func (ls *liveSession) unsubscribe(id int) {
	ls.subMu.Lock()
	defer ls.subMu.Unlock()
	if ch, ok := ls.subs[id]; ok {
		delete(ls.subs, id)
		close(ch)
	}
}

// broadcast fans an encoded event out to every subscriber, dropping it for
// consumers whose buffer is full.
func (ls *liveSession) broadcast(msg []byte) {
	ls.subMu.Lock()
	defer ls.subMu.Unlock()
	for _, ch := range ls.subs {
		select {
		case ch <- msg:
		default:
		}
	}
}

// closeSubs terminates every subscriber stream (eviction, deletion).
func (ls *liveSession) closeSubs() {
	ls.subMu.Lock()
	defer ls.subMu.Unlock()
	if ls.closed {
		return
	}
	ls.closed = true
	for id, ch := range ls.subs {
		delete(ls.subs, id)
		close(ch)
	}
}

// --- error mapping -----------------------------------------------------------

// statusClientClosedRequest is the de-facto status (nginx's 499) for
// requests abandoned by the client; nothing standard fits a cancellation
// observed server-side.
const statusClientClosedRequest = 499

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Code: code})
}

// writeEngineError maps the typed errors of the session/engine stack onto
// HTTP statuses: parse errors are the client's fault (400, with position),
// budget limits are load shedding (422, retryable with a larger budget or
// smaller input), cancellation reports 499, and everything else is a 500.
func writeEngineError(w http.ResponseWriter, err error) {
	var pe *parser.ParseError
	switch {
	case errors.As(err, &pe):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: pe.Error(), Code: "parse", Line: pe.Line, Col: pe.Col})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, statusClientClosedRequest, "canceled", err.Error())
	case errors.Is(err, stable.ErrCandidateLimit):
		writeError(w, http.StatusUnprocessableEntity, "candidate_limit", err.Error())
	case errors.Is(err, repair.ErrStateLimit):
		writeError(w, http.StatusUnprocessableEntity, "state_limit", err.Error())
	case errors.Is(err, repair.ErrConflictingSet):
		writeError(w, http.StatusUnprocessableEntity, "conflicting_constraints", err.Error())
	case errors.Is(err, direct.ErrScope):
		writeError(w, http.StatusUnprocessableEntity, "direct_scope", err.Error())
	case errors.As(err, new(*engine.UnknownError)):
		writeError(w, http.StatusBadRequest, "bad_engine", err.Error())
	case errors.Is(err, session.ErrInconsistentUnrepairable):
		writeError(w, http.StatusInternalServerError, "unrepairable", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// --- lookup helpers ----------------------------------------------------------

func (s *server) tenantFor(name string, create bool) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil && create {
		t = &tenant{
			name:     name,
			inflight: make(chan struct{}, s.cfg.MaxInflight),
			sessions: map[string]*liveSession{},
		}
		s.tenants[name] = t
	}
	return t
}

// lookup resolves a request's tenant and session, writing the 404 itself
// when either is missing.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*tenant, *liveSession, bool) {
	t := s.tenantFor(r.PathValue("tenant"), false)
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown_tenant", fmt.Sprintf("unknown tenant %q", r.PathValue("tenant")))
		return nil, nil, false
	}
	t.mu.Lock()
	ls := t.sessions[r.PathValue("session")]
	t.mu.Unlock()
	if ls == nil {
		writeError(w, http.StatusNotFound, "unknown_session", fmt.Sprintf("unknown session %q", r.PathValue("session")))
		return nil, nil, false
	}
	return t, ls, true
}

// shed acquires an in-flight slot for an expensive request, shedding with
// 429 when the tenant's pool is exhausted.
func shed(w http.ResponseWriter, t *tenant) bool {
	if !t.acquire() {
		writeError(w, http.StatusTooManyRequests, "tenant_busy",
			fmt.Sprintf("tenant %q has %d requests in flight; retry later", t.name, cap(t.inflight)))
		return false
	}
	return true
}

// maxBodyBytes caps every request body, so no request can make the daemon
// buffer more than this. The largest body the benchmark workloads send (a
// fd-live create) is about 1.3 MB.
const maxBodyBytes = 64 << 20

// decode reads one JSON request body into v. A body over maxBodyBytes is
// answered with 413, any other decoding failure with 400.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_request", "decoding request body: "+err.Error())
		return false
	}
	return true
}

// engineOptions maps a request's engine selection onto session options via
// the shared registry, adding the per-session load-shedding budgets. The
// request's workers field is ignored.
func engineOptions(name string, maxStates, maxCandidates int) (session.Options, error) {
	opts, err := engine.Options(name, 0)
	if err != nil {
		return opts, err
	}
	opts.Repair.MaxStates = maxStates
	opts.Stable.MaxCandidates = maxCandidates
	return opts, nil
}

// --- handlers ----------------------------------------------------------------

// The request/response bodies are the shared wire schema (internal/wire),
// so clients and tests marshal against one definition.
type (
	createSessionRequest  = wire.CreateSessionRequest
	createSessionResponse = wire.CreateSessionResponse
	applyRequest          = wire.ApplyRequest
	queryRequest          = wire.QueryRequest
	prepareRequest        = wire.PrepareRequest
)

// handleCreate builds a session on an in-flight slot of its tenant. It
// refuses a taken name or a full tenant before it parses anything, and
// checks both again when it inserts the session, which covers concurrent
// creates of one name.
func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(r.PathValue("tenant"), true)
	if !shed(w, t) {
		return
	}
	defer t.release()
	var req createSessionRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Name == "" || strings.ContainsAny(req.Name, "/ ") {
		writeError(w, http.StatusBadRequest, "bad_name", "session name must be non-empty without '/' or spaces")
		return
	}
	t.mu.Lock()
	status, code, msg := s.refusal(t, req.Name)
	t.mu.Unlock()
	if status != 0 {
		writeError(w, status, code, msg)
		return
	}

	var d *relational.Instance
	switch {
	case req.Instance != nil && req.InstanceText != "":
		writeError(w, http.StatusBadRequest, "bad_request", "instance and instance_text are mutually exclusive")
		return
	case req.Instance != nil:
		d = req.Instance.ToInstance()
	default:
		var err error
		if d, err = parser.Instance(req.InstanceText); err != nil {
			writeEngineError(w, err)
			return
		}
	}

	var set *constraint.Set
	switch {
	case req.Constraints != nil && req.ConstraintsText != "":
		writeError(w, http.StatusBadRequest, "bad_request", "constraints and constraints_text are mutually exclusive")
		return
	case req.Constraints != nil:
		var err error
		if set, err = req.Constraints.ToSet(); err != nil {
			writeEngineError(w, err)
			return
		}
	default:
		var err error
		if set, err = parser.Constraints(req.ConstraintsText); err != nil {
			writeEngineError(w, err)
			return
		}
	}

	opts, err := engineOptions(req.Engine, req.MaxStates, req.MaxCandidates)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_engine", err.Error())
		return
	}

	ls := &liveSession{
		tenant:   t.name,
		name:     req.Name,
		s:        session.New(d, set, opts),
		prepared: map[string]*standing{},
		lastUsed: s.cfg.now(),
		subs:     map[int]chan []byte{},
	}
	t.mu.Lock()
	if status, code, msg = s.refusal(t, req.Name); status == 0 {
		t.sessions[req.Name] = ls
	}
	t.mu.Unlock()
	if status != 0 {
		writeError(w, status, code, msg)
		return
	}

	ls.mu.Lock()
	consistent := ls.s.Consistent()
	resolved := engine.NameOf(ls.s.Options().Engine)
	ls.mu.Unlock()
	writeJSON(w, http.StatusCreated, createSessionResponse{
		Tenant:      t.name,
		Name:        req.Name,
		Facts:       d.Len(),
		Constraints: len(set.ICs) + len(set.NNCs),
		Consistent:  consistent,
		Engine:      resolved,
	})
}

// refusal returns the error a create of a session called name must get,
// or status 0 when tenant t can take it. The caller holds t.mu.
func (s *server) refusal(t *tenant, name string) (status int, code, msg string) {
	switch {
	case t.sessions[name] != nil:
		return http.StatusConflict, "session_exists", fmt.Sprintf("tenant %q already has a session %q", t.name, name)
	case len(t.sessions) >= s.cfg.MaxSessions:
		return http.StatusTooManyRequests, "session_limit",
			fmt.Sprintf("tenant %q is at its session limit (%d)", t.name, s.cfg.MaxSessions)
	}
	return 0, "", ""
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	t, ls, ok := s.lookup(w, r)
	if !ok {
		return
	}
	drop(t, ls)
	w.WriteHeader(http.StatusNoContent)
}

// drop removes ls from its tenant, unless a later session already took
// its name, and terminates its subscriber streams.
func drop(t *tenant, ls *liveSession) {
	t.mu.Lock()
	if t.sessions[ls.name] == ls {
		delete(t.sessions, ls.name)
	}
	t.mu.Unlock()
	ls.closeSubs()
}

// locked runs fn on ls under its mutex and reports whether fn returned. A
// session dropped by an earlier panic answers 404 unknown_session, even to
// a request that found it before the drop. A panic in fn (an engine fault)
// leaves the session half-updated, so it costs that session alone: it is
// marked dropped before its mutex is released, so that no request queued
// on the mutex runs on it, then removed from its tenant as a delete would,
// the panic is logged with its stack, and the request is answered 500
// internal. Without this, net/http would recover the goroutine with ls.mu
// still held, and every later request to the session would block on it
// while holding a tenant in-flight slot.
func (s *server) locked(w http.ResponseWriter, t *tenant, ls *liveSession, fn func()) (ok bool) {
	var (
		fault any
		stack []byte
	)
	func() {
		ls.mu.Lock()
		defer ls.mu.Unlock()
		if ls.dropped {
			return
		}
		// Deferred after Lock, so it runs before Unlock.
		defer func() {
			if fault = recover(); fault != nil {
				ls.dropped, stack = true, debug.Stack()
			}
		}()
		ls.lastUsed = s.cfg.now()
		fn()
		ok = true
	}()
	switch {
	case ok:
	case fault == nil:
		writeError(w, http.StatusNotFound, "unknown_session", fmt.Sprintf("unknown session %q", ls.name))
	default:
		// drop takes t.mu, which evictIdle holds while it takes ls.mu, so
		// it runs only after ls.mu is released.
		log.Printf("cqad: panic in session %s/%s, session dropped: %v\n%s", ls.tenant, ls.name, fault, stack)
		drop(t, ls)
		writeError(w, http.StatusInternalServerError, "internal",
			fmt.Sprintf("internal error in session %q; the session was dropped", ls.name))
	}
	return ok
}

func (s *server) handleApply(w http.ResponseWriter, r *http.Request) {
	t, ls, ok := s.lookup(w, r)
	if !ok || !shed(w, t) {
		return
	}
	defer t.release()
	var req applyRequest
	if !decode(w, r, &req) {
		return
	}
	var delta relational.Delta
	if req.Delta != nil {
		delta = req.Delta.ToDelta()
	}
	if req.InsertText != "" {
		inst, err := parser.Instance(req.InsertText)
		if err != nil {
			writeEngineError(w, err)
			return
		}
		delta.Added = append(delta.Added, inst.Facts()...)
	}
	if req.DeleteText != "" {
		inst, err := parser.Instance(req.DeleteText)
		if err != nil {
			writeEngineError(w, err)
			return
		}
		delta.Removed = append(delta.Removed, inst.Facts()...)
	}

	var (
		resp wire.ApplyResponse
		err  error
	)
	if !s.locked(w, t, ls, func() {
		var res session.ApplyResult
		res, err = ls.s.ApplyCtx(r.Context(), delta)
		var updates []session.QueryUpdate
		for _, st := range ls.order {
			if st.diff != nil {
				updates = append(updates, *st.diff)
				st.diff = nil
			}
		}
		// On error the update itself is applied and only the refresh was
		// interrupted: the partial diffs collected above are dropped, and
		// the affected standing queries are marked stale and revalidate
		// on the next apply.
		if err == nil {
			resp = wire.NewApplyResponse(ls.s, res, updates)
		}
	}) {
		return
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}

	for _, u := range resp.Updates {
		if msg, err := json.Marshal(u); err == nil {
			ls.broadcast(msg)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, ls, ok := s.lookup(w, r)
	if !ok || !shed(w, t) {
		return
	}
	defer t.release()
	var req queryRequest
	if !decode(w, r, &req) {
		return
	}
	q, err := parser.Query(req.Query)
	if err != nil {
		writeEngineError(w, err)
		return
	}

	if req.Semantics != "" && req.Semantics != "certain" && req.Semantics != "possible" {
		writeError(w, http.StatusBadRequest, "bad_semantics",
			fmt.Sprintf("unknown semantics %q: want certain or possible", req.Semantics))
		return
	}

	var resp wire.AnswerResponse
	if !s.locked(w, t, ls, func() { resp, err = answerQuery(r.Context(), ls.s, q, req) }) {
		return
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// answerQuery answers q on s under the request's semantics. An engine
// override answers from a throwaway session over s's current head instead,
// under s's budgets: correct, but without s's caches.
func answerQuery(ctx context.Context, s *session.Session, q *query.Q, req queryRequest) (wire.AnswerResponse, error) {
	if req.Engine != "" {
		o := s.Options()
		opts, err := engineOptions(req.Engine, o.Repair.MaxStates, o.Stable.MaxCandidates)
		if err != nil {
			return wire.AnswerResponse{}, err
		}
		s = session.New(s.Current(), s.Set(), opts)
	}
	resp := wire.AnswerResponse{Query: q.String()}
	if req.Semantics != "possible" {
		ans, err := s.AnswerCtx(ctx, q)
		resp.Answer = wire.FromAnswer(ans)
		return resp, err
	}
	tuples, err := s.PossibleCtx(ctx, q)
	resp.Semantics = "possible"
	if q.IsBoolean() {
		resp.Answer.Boolean = len(tuples) > 0
	} else {
		resp.Answer.Tuples = wire.FromTuples(tuples)
	}
	return resp, err
}

func (s *server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	t, ls, ok := s.lookup(w, r)
	if !ok || !shed(w, t) {
		return
	}
	defer t.release()
	var req prepareRequest
	if !decode(w, r, &req) {
		return
	}
	q, err := parser.Query(req.Query)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	name := q.Name
	if name == "" {
		name = "q"
	}

	var (
		resp    wire.AnswerResponse
		status  = http.StatusCreated
		clashes bool
	)
	if !s.locked(w, t, ls, func() {
		if st := ls.prepared[name]; st != nil {
			// An idempotent re-prepare of the same query, or a clash.
			// The canonical render tells a string constant from a
			// variable, which the display form q.String() does not.
			if clashes = wire.FromQuery(st.q).Source != wire.FromQuery(q).Source; !clashes {
				resp, status = wire.PreparedResponse(st.p), http.StatusOK
			}
			return
		}
		var p *session.Prepared
		if p, err = ls.s.PrepareCtx(r.Context(), q); err != nil {
			return
		}
		st := &standing{q: q, p: p}
		p.Subscribe(func(u session.QueryUpdate) { st.diff = &u })
		ls.prepared[name] = st
		ls.order = append(ls.order, st)
		resp = wire.PreparedResponse(p)
	}) {
		return
	}
	switch {
	case clashes:
		writeError(w, http.StatusConflict, "query_exists",
			fmt.Sprintf("session already has a different standing query named %q", name))
	case err != nil:
		writeEngineError(w, err)
	default:
		writeJSON(w, status, resp)
	}
}

func (s *server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	t, ls, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var (
		st   *standing
		resp wire.AnswerResponse
	)
	if !s.locked(w, t, ls, func() {
		if st = ls.prepared[r.PathValue("query")]; st != nil {
			resp = wire.PreparedResponse(st.p)
		}
	}) {
		return
	}
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown_query",
			fmt.Sprintf("no standing query named %q; POST it to .../prepare first", r.PathValue("query")))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	_, ls, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "no_stream", "response writer cannot stream")
		return
	}
	id, ch, alive := ls.subscribe()
	if !alive {
		writeError(w, http.StatusGone, "session_closed", "session is being torn down")
		return
	}
	defer ls.unsubscribe(id)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": subscribed %s/%s\n\n", ls.tenant, ls.name)
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case msg, open := <-ch:
			if !open {
				return
			}
			fmt.Fprintf(w, "event: update\ndata: %s\n\n", msg)
			flusher.Flush()
		}
	}
}

// evictIdle removes every session idle since before now-TTL, terminating
// its subscriber streams. It returns how many sessions were evicted.
func (s *server) evictIdle(now time.Time) int {
	if s.cfg.SessionTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.SessionTTL)
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()

	evicted := 0
	for _, t := range tenants {
		var dead []*liveSession
		t.mu.Lock()
		for name, ls := range t.sessions {
			ls.mu.Lock()
			idle := ls.lastUsed.Before(cutoff)
			ls.mu.Unlock()
			if idle {
				delete(t.sessions, name)
				dead = append(dead, ls)
			}
		}
		t.mu.Unlock()
		for _, ls := range dead {
			ls.closeSubs()
			evicted++
		}
	}
	return evicted
}

// janitor runs TTL eviction until ctx is cancelled.
func (s *server) janitor(ctx context.Context) {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	tick := time.NewTicker(s.cfg.SessionTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.evictIdle(s.cfg.now())
		}
	}
}
