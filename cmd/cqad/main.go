// Command cqad is a long-lived HTTP/JSON daemon serving consistent query
// answering over persistent sessions (internal/session) to many tenants.
// Each tenant owns named sessions; each session is one (D, IC) pair whose
// repair state, standing queries and violation lists survive across
// requests, so an update costs O(|Δ|) instead of a cold re-enumeration.
//
// API (all request and response bodies use the JSON wire schema of
// internal/wire; errors are {"error", "code"[, "line", "col"]}):
//
//	POST   /v1/tenants/{t}/sessions                    create a session (instance + ICs + engine)
//	DELETE /v1/tenants/{t}/sessions/{s}                drop it
//	POST   /v1/tenants/{t}/sessions/{s}/apply          apply a delta -> wire.ApplyResponse
//	POST   /v1/tenants/{t}/sessions/{s}/query          ad-hoc answer -> wire.AnswerResponse
//	POST   /v1/tenants/{t}/sessions/{s}/prepare        register a standing query
//	GET    /v1/tenants/{t}/sessions/{s}/answers/{q}    standing query's current answers
//	GET    /v1/tenants/{t}/sessions/{s}/subscribe      SSE stream of changed-answer diffs
//
// Quickstart:
//
//	cqad -addr :8080 &
//	curl -s localhost:8080/v1/tenants/acme/sessions -d '{
//	  "name": "s1",
//	  "instance_text": "r(a, b). r(a, c). s(e, f).",
//	  "constraints_text": "r(X, Y), r(X, Z) -> Y = Z. s(U, V) -> r(V, W)."
//	}'
//	curl -s localhost:8080/v1/tenants/acme/sessions/s1/prepare -d '{"query": "q(V) :- s(U, V)."}'
//	curl -s localhost:8080/v1/tenants/acme/sessions/s1/apply -d '{"delete_text": "r(a, c)."}'
//	curl -s localhost:8080/v1/tenants/acme/sessions/s1/answers/q
//
// Tenancy and isolation: all fact identity in the engine stack is
// content-addressed (internal/value interns nothing), so sessions of
// different tenants share zero mutable state; requests of one tenant can
// never observe, block on, or leak values into another's. Load shedding is
// per tenant: -max-inflight concurrent expensive requests (429 beyond
// that), -max-sessions live sessions, and per-session -engine budgets
// (max_states, max_candidates) that turn runaway enumerations into typed
// 422 responses. Idle sessions are evicted after -session-ttl.
//
// Cancellation: a client that disconnects mid-request aborts the
// enumeration it was waiting on (context propagation through the whole
// engine stack); the session survives, with interrupted standing queries
// marked stale until the next successful apply.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cqad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cqad", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	ttl := fs.Duration("session-ttl", 30*time.Minute, "evict sessions idle for this long (0 disables)")
	inflight := fs.Int("max-inflight", 4, "concurrent create/apply/query/prepare requests per tenant before shedding 429s")
	maxSessions := fs.Int("max-sessions", 64, "live sessions per tenant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	srv := newServer(config{
		SessionTTL:  *ttl,
		MaxInflight: *inflight,
		MaxSessions: *maxSessions,
	})
	// SIGTERM is how kill, systemd and Kubernetes stop a service; both
	// signals drain in-flight requests and SSE streams through Shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go srv.janitor(ctx)

	hs := newHTTPServer(*addr, srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("cqad: listening on %s", *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("cqad: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

// Connection deadlines of the daemon's listener. A client must finish its
// request headers within readHeaderTimeout, and an idle keep-alive
// connection is closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the http.Server that run serves. It sets no
// ReadTimeout or WriteTimeout: an SSE subscription stays open for as long
// as its client listens, and a multi-MB create must not be cut off while
// it uploads; maxBodyBytes bounds what a body can cost instead.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
