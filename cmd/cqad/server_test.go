package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixture mirrors cmd/cqa's test fixture: an instance violating a key
// constraint, a referential constraint, and a NOT NULL-constraint.
const (
	fixtureDB = "r(a, b).\nr(a, c).\ns(e, f).\ns(null, a).\n"
	fixtureIC = "r(X, Y), r(X, Z) -> Y = Z.\ns(U, V) -> r(V, W).\nr(X, Y), isnull(X) -> false.\n"
)

func newTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

func doJSON(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func createSession(t *testing.T, base, tenant, name string, extra string) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"instance_text":%q,"constraints_text":%q%s}`,
		name, fixtureDB, fixtureIC, extra)
	code, resp := doJSON(t, "POST", base+"/v1/tenants/"+tenant+"/sessions", body)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", code, resp)
	}
}

// TestDirectEngine covers the repair-less engine over HTTP: auto resolves
// to direct on FD-only constraints (and the create response says so), the
// per-request engine override accepts direct, and a direct session on
// out-of-scope constraints fails with 422 direct_scope.
func TestDirectEngine(t *testing.T) {
	_, hs := newTestServer(t, config{})
	base := hs.URL
	fdDB := "r(a, b).\nr(a, c).\nr(d, b).\ns(e, a).\n"
	fdIC := "r(X, Y), r(X, Z) -> Y = Z."

	code, resp := doJSON(t, "POST", base+"/v1/tenants/acme/sessions",
		fmt.Sprintf(`{"name":"fd","instance_text":%q,"constraints_text":%q,"engine":"auto"}`, fdDB, fdIC))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, resp)
	}
	if !strings.Contains(resp, `"engine":"direct"`) {
		t.Errorf("auto did not resolve to direct: %s", resp)
	}

	s1 := base + "/v1/tenants/acme/sessions/fd"
	code, resp = doJSON(t, "POST", s1+"/query", `{"query":"q(V) :- s(U, V)."}`)
	if code != http.StatusOK || !strings.Contains(resp, `"tuples":[["a"]]`) ||
		!strings.Contains(resp, `"num_repairs":2`) {
		t.Errorf("direct query: %d %s", code, resp)
	}
	code, resp = doJSON(t, "POST", s1+"/query", `{"query":"q(X) :- r(X, b).","semantics":"possible"}`)
	if code != http.StatusOK || !strings.Contains(resp, `[["a"],["d"]]`) {
		t.Errorf("direct possible query: %d %s", code, resp)
	}

	// Per-request override onto the same session.
	code, resp = doJSON(t, "POST", s1+"/query", `{"query":"q(V) :- s(U, V).","engine":"search"}`)
	if code != http.StatusOK || !strings.Contains(resp, `"tuples":[["a"]]`) {
		t.Errorf("search override on direct session: %d %s", code, resp)
	}

	// The mixed fixture is out of the direct scope: creation succeeds (the
	// classification is lazy) but the first answer reports 422.
	createSession(t, base, "acme", "mixed", `,"engine":"direct"`)
	code, resp = doJSON(t, "POST", base+"/v1/tenants/acme/sessions/mixed/query", `{"query":"q(V) :- s(U, V)."}`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(resp, "direct_scope") {
		t.Errorf("direct on mixed constraints: %d %s", code, resp)
	}
	// The override path reports the same scope error.
	createSession(t, base, "acme", "mixed2", "")
	code, resp = doJSON(t, "POST", base+"/v1/tenants/acme/sessions/mixed2/query",
		`{"query":"q(V) :- s(U, V).","engine":"direct"}`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(resp, "direct_scope") {
		t.Errorf("direct override on mixed constraints: %d %s", code, resp)
	}
}

// TestEndpointsGolden drives every endpoint once and pins the response
// documents.
func TestEndpointsGolden(t *testing.T) {
	_, hs := newTestServer(t, config{})
	base := hs.URL
	s1 := base + "/v1/tenants/acme/sessions/s1"

	code, resp := doJSON(t, "POST", base+"/v1/tenants/acme/sessions",
		fmt.Sprintf(`{"name":"s1","instance_text":%q,"constraints_text":%q}`, fixtureDB, fixtureIC))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, resp)
	}
	if want := `{"tenant":"acme","name":"s1","facts":4,"constraints":3,"consistent":false,"engine":"search"}` + "\n"; resp != want {
		t.Errorf("create response:\n got %swant %s", resp, want)
	}

	code, resp = doJSON(t, "POST", s1+"/prepare", `{"query":"q(V) :- s(U, V)."}`)
	if code != http.StatusCreated {
		t.Fatalf("prepare: %d %s", code, resp)
	}
	if want := `{"query":"q(V) :- s(U, V).","answer":{"tuples":[["a"]],"boolean":false,"num_repairs":0}}` + "\n"; resp != want {
		t.Errorf("prepare response:\n got %swant %s", resp, want)
	}

	// Idempotent re-prepare returns 200 with the same document.
	code, resp2 := doJSON(t, "POST", s1+"/prepare", `{"query":"q(V) :- s(U, V)."}`)
	if code != http.StatusOK || resp2 != resp {
		t.Errorf("re-prepare: %d %s", code, resp2)
	}

	code, resp = doJSON(t, "POST", s1+"/apply", `{"delete_text":"r(a, c)."}`)
	if code != http.StatusOK {
		t.Fatalf("apply: %d %s", code, resp)
	}
	// Deleting r(a, c) resolves the key conflict without changing this
	// query's certain answers, so no update diff is pushed.
	want := `{"result":{"applied":{"removed":[{"pred":"r","args":["a","c"]}]},"constraint_relevant":true,"repairs_invalidated":2,"reenumerated":true,"queries_refreshed":1},"consistent":false,"violations":1}` + "\n"
	if resp != want {
		t.Errorf("apply response:\n got %swant %s", resp, want)
	}

	code, resp = doJSON(t, "GET", s1+"/answers/q", "")
	if code != http.StatusOK {
		t.Fatalf("answers: %d %s", code, resp)
	}
	if want := `{"query":"q(V) :- s(U, V).","answer":{"tuples":[["a"]],"boolean":false,"num_repairs":0}}` + "\n"; resp != want {
		t.Errorf("answers response:\n got %swant %s", resp, want)
	}

	code, resp = doJSON(t, "POST", s1+"/query", `{"query":"q(V) :- s(U, V)."}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, resp)
	}
	if want := `{"query":"q(V) :- s(U, V).","answer":{"tuples":[["a"]],"boolean":false,"num_repairs":2,"states_explored":3}}` + "\n"; resp != want {
		t.Errorf("query response:\n got %swant %s", resp, want)
	}

	code, resp = doJSON(t, "POST", s1+"/query", `{"query":"q(V) :- s(U, V).","semantics":"possible"}`)
	if code != http.StatusOK {
		t.Fatalf("possible query: %d %s", code, resp)
	}
	if want := `{"query":"q(V) :- s(U, V).","answer":{"tuples":[["a"],["f"]],"boolean":false,"num_repairs":0},"semantics":"possible"}` + "\n"; resp != want {
		t.Errorf("possible response:\n got %swant %s", resp, want)
	}

	// Per-request engine override: same answer, program-engine diagnostics.
	code, resp = doJSON(t, "POST", s1+"/query", `{"query":"q(V) :- s(U, V).","engine":"cautious"}`)
	if code != http.StatusOK {
		t.Fatalf("override query: %d %s", code, resp)
	}
	if !strings.Contains(resp, `"tuples":[["a"]]`) {
		t.Errorf("override response lost the answer: %s", resp)
	}

	code, _ = doJSON(t, "DELETE", s1, "")
	if code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	code, _ = doJSON(t, "GET", s1+"/answers/q", "")
	if code != http.StatusNotFound {
		t.Errorf("answers after delete: %d, want 404", code)
	}
}

// TestParityWithCLI replays cmd/cqa's JSON session script over HTTP and
// requires the concatenated response bodies to be byte-identical to the
// CLI transcript pinned in cmd/cqa/testdata/session_json.golden.
func TestParityWithCLI(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "cqa", "testdata", "session_json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, config{})
	base := hs.URL
	createSession(t, base, "acme", "s1", "")
	s1 := base + "/v1/tenants/acme/sessions/s1"

	// The script of cmd/cqa's TestSessionJSONGolden, verb by verb.
	var out strings.Builder
	steps := []struct {
		path, body string
	}{
		{"/prepare", `{"query":"q(V) :- s(U, V)."}`},
		{"/prepare", `{"query":"p :- r(a, b)."}`},
		{"/apply", `{"insert_text":"t(x, y)."}`},
		{"/apply", `{"delete_text":"r(a, c)."}`},
		{"/apply", `{"delete_text":"r(a, c)."}`},
		{"/prepare", `{"query":"q(V) :- s(U, V)."}`},
	}
	for _, st := range steps {
		code, resp := doJSON(t, "POST", s1+st.path, st.body)
		if code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("POST %s: %d %s", st.path, code, resp)
		}
		out.WriteString(resp)
	}
	if out.String() != string(golden) {
		t.Errorf("HTTP transcript differs from CLI golden:\n--- http ---\n%s--- cli ---\n%s", out.String(), golden)
	}
}

// TestConcurrentTenants hammers several tenants concurrently (meaningful
// under -race): every tenant owns an identical session, mutates it through
// a disjoint schedule, and must end with exactly its own answers.
func TestConcurrentTenants(t *testing.T) {
	_, hs := newTestServer(t, config{MaxInflight: 8})
	base := hs.URL

	const tenants = 4
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i)
			createSession(t, base, tenant, "s", "")
			url := base + "/v1/tenants/" + tenant + "/sessions/s"
			if code, resp := doJSON(t, "POST", url+"/prepare", `{"query":"q(V) :- s(U, V)."}`); code != http.StatusCreated {
				t.Errorf("%s prepare: %d %s", tenant, code, resp)
				return
			}
			// Tenant i inserts its private fact and resolves the key
			// conflict in its own direction.
			mine := fmt.Sprintf("u(v%d).", i)
			for _, body := range []string{
				fmt.Sprintf(`{"insert_text":%q}`, mine),
				`{"delete_text":"r(a, c)."}`,
				`{"insert_text":"r(a, c)."}`,
				`{"delete_text":"r(a, b)."}`,
			} {
				if code, resp := doJSON(t, "POST", url+"/apply", body); code != http.StatusOK {
					t.Errorf("%s apply %s: %d %s", tenant, body, code, resp)
					return
				}
			}
			code, resp := doJSON(t, "POST", url+"/query", fmt.Sprintf(`{"query":"q() :- u(v%d)."}`, i))
			if code != http.StatusOK || !strings.Contains(resp, `"boolean":true`) {
				t.Errorf("%s lost its own fact: %d %s", tenant, code, resp)
			}
			// No cross-tenant leakage: other tenants' facts are certainly
			// absent.
			other := (i + 1) % tenants
			code, resp = doJSON(t, "POST", url+"/query", fmt.Sprintf(`{"query":"q() :- u(v%d)."}`, other))
			if code != http.StatusOK || !strings.Contains(resp, `"boolean":false`) {
				t.Errorf("%s sees tenant %d's fact: %d %s", tenant, other, code, resp)
			}
		}(i)
	}
	wg.Wait()
}

// TestSessionEviction pins TTL eviction on an injected clock: idle
// sessions go away (404 afterwards), touched sessions survive, and
// eviction terminates subscriber streams.
func TestSessionEviction(t *testing.T) {
	clock := time.Now()
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	srv, hs := newTestServer(t, config{SessionTTL: time.Minute, now: now})
	base := hs.URL
	createSession(t, base, "acme", "idle", "")
	createSession(t, base, "acme", "busy", "")

	// A subscriber on the idle session observes the eviction as EOF.
	sub, err := http.Get(base + "/v1/tenants/acme/sessions/idle/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()

	advance(2 * time.Minute)
	// Touch only the busy session.
	if code, resp := doJSON(t, "POST", base+"/v1/tenants/acme/sessions/busy/query", `{"query":"q() :- r(a, b)."}`); code != http.StatusOK {
		t.Fatalf("touch busy: %d %s", code, resp)
	}
	if got := srv.evictIdle(now()); got != 1 {
		t.Fatalf("evictIdle evicted %d sessions, want 1", got)
	}
	if code, _ := doJSON(t, "GET", base+"/v1/tenants/acme/sessions/idle/answers/q", ""); code != http.StatusNotFound {
		t.Errorf("evicted session still answers: %d", code)
	}
	if code, resp := doJSON(t, "POST", base+"/v1/tenants/acme/sessions/busy/query", `{"query":"q() :- r(a, b)."}`); code != http.StatusOK {
		t.Errorf("busy session evicted: %d %s", code, resp)
	}
	// The subscriber's stream ends once the session is gone.
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, sub.Body)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("subscriber stream did not terminate on eviction")
	}
}

// TestCancelledQueryDoesNotPoison cancels a query mid-request and checks
// (a) the request reports the cancellation, (b) the session stays usable,
// and (c) the enumeration really was aborted: the repair cache stayed
// cold, so the next query still pays — and reports — the full exploration
// diagnostics instead of answering from a half-filled cache.
func TestCancelledQueryDoesNotPoison(t *testing.T) {
	srv, _ := newTestServer(t, config{})
	// In-process request with a pre-cancelled context: deterministic
	// cancellation before any state is explored.
	create := httptest.NewRequest("POST", "/v1/tenants/acme/sessions",
		strings.NewReader(fmt.Sprintf(`{"name":"s1","instance_text":%q,"constraints_text":%q}`, fixtureDB, fixtureIC)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, create)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := httptest.NewRequest("POST", "/v1/tenants/acme/sessions/s1/query",
		strings.NewReader(`{"query":"q(V) :- s(U, V)."}`)).WithContext(ctx)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, q)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled query: status %d %s, want %d", rec.Code, rec.Body, statusClientClosedRequest)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != "canceled" {
		t.Fatalf("cancelled query body: %s", rec.Body)
	}

	// The session answers normally afterwards, with the untruncated
	// full-enumeration diagnostics (states_explored 7 on this fixture —
	// the same count a fresh session reports).
	q = httptest.NewRequest("POST", "/v1/tenants/acme/sessions/s1/query",
		strings.NewReader(`{"query":"q(V) :- s(U, V)."}`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, q)
	want := `{"query":"q(V) :- s(U, V).","answer":{"tuples":[["a"]],"boolean":false,"num_repairs":4,"states_explored":7}}` + "\n"
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Errorf("query after cancellation: %d\n got %swant %s", rec.Code, rec.Body, want)
	}
}

// TestLoadShedding pins the per-tenant caps: in-flight requests beyond the
// pool shed with 429, session counts beyond the limit shed with 429, and
// per-session enumeration budgets surface as typed 422s.
func TestLoadShedding(t *testing.T) {
	srv, hs := newTestServer(t, config{MaxInflight: 1, MaxSessions: 2})
	base := hs.URL
	createSession(t, base, "acme", "s1", "")

	// Exhaust the tenant's only slot, then every expensive request sheds.
	tn := srv.tenantFor("acme", false)
	if tn == nil || !tn.acquire() {
		t.Fatal("could not claim the in-flight slot")
	}
	code, resp := doJSON(t, "POST", base+"/v1/tenants/acme/sessions/s1/query", `{"query":"q() :- r(a, b)."}`)
	if code != http.StatusTooManyRequests || !strings.Contains(resp, "tenant_busy") {
		t.Errorf("busy tenant query: %d %s, want 429 tenant_busy", code, resp)
	}
	// Cheap reads are never shed.
	if code, _ := doJSON(t, "GET", base+"/v1/tenants/acme/sessions/s1/answers/q", ""); code != http.StatusNotFound {
		t.Errorf("answers while busy: %d, want 404 (not 429)", code)
	}
	tn.release()
	if code, _ := doJSON(t, "POST", base+"/v1/tenants/acme/sessions/s1/query", `{"query":"q() :- r(a, b)."}`); code != http.StatusOK {
		t.Errorf("query after release: %d", code)
	}

	// Session limit.
	createSession(t, base, "acme", "s2", "")
	code, resp = doJSON(t, "POST", base+"/v1/tenants/acme/sessions",
		fmt.Sprintf(`{"name":"s3","instance_text":%q,"constraints_text":%q}`, fixtureDB, fixtureIC))
	if code != http.StatusTooManyRequests || !strings.Contains(resp, "session_limit") {
		t.Errorf("session limit: %d %s, want 429 session_limit", code, resp)
	}

	// Enumeration budget: a one-state search budget cannot finish the
	// fixture's repair search and sheds with a typed 422.
	createSession(t, base, "over", "tiny", `,"max_states":1`)
	code, resp = doJSON(t, "POST", base+"/v1/tenants/over/sessions/tiny/query", `{"query":"q(V) :- s(U, V)."}`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(resp, "state_limit") {
		t.Errorf("state budget: %d %s, want 422 state_limit", code, resp)
	}
}

// TestCreateBounded pins the bounds on session creation: a create takes an
// in-flight slot like every expensive request, and a taken name or a full
// tenant is refused before the instance is parsed, so such a create costs
// nothing and an unparsable instance cannot mask the refusal.
func TestCreateBounded(t *testing.T) {
	srv, hs := newTestServer(t, config{MaxInflight: 1, MaxSessions: 2})
	base := hs.URL + "/v1/tenants/acme/sessions"
	createSession(t, hs.URL, "acme", "s1", "")

	tn := srv.tenantFor("acme", false)
	if tn == nil || !tn.acquire() {
		t.Fatal("could not claim the in-flight slot")
	}
	code, resp := doJSON(t, "POST", base, fmt.Sprintf(`{"name":"s2","instance_text":%q}`, fixtureDB))
	if code != http.StatusTooManyRequests || !strings.Contains(resp, "tenant_busy") {
		t.Errorf("create on a busy tenant: %d %s, want 429 tenant_busy", code, resp)
	}
	tn.release()

	unparsable := `{"name":"s1","instance_text":"r(a, "}`
	code, resp = doJSON(t, "POST", base, unparsable)
	if code != http.StatusConflict || !strings.Contains(resp, "session_exists") {
		t.Errorf("taken name, unparsable instance: %d %s, want 409 session_exists", code, resp)
	}
	createSession(t, hs.URL, "acme", "s2", "")
	code, resp = doJSON(t, "POST", base, strings.Replace(unparsable, "s1", "s3", 1))
	if code != http.StatusTooManyRequests || !strings.Contains(resp, "session_limit") {
		t.Errorf("full tenant, unparsable instance: %d %s, want 429 session_limit", code, resp)
	}
	// Every refused create released its slot.
	if !tn.acquire() {
		t.Fatal("a refused create kept its in-flight slot")
	}
	tn.release()

	// Concurrent creates of one name all pass the early check; the check
	// at insertion lets exactly one of them in.
	const racers = 4
	_, hs = newTestServer(t, config{MaxInflight: racers})
	body := fmt.Sprintf(`{"name":"same","instance_text":%q,"constraints_text":%q}`, fixtureDB, fixtureIC)
	codes := make(chan int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/tenants/acme/sessions", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	count := map[int]int{}
	for code := range codes {
		count[code]++
	}
	if count[http.StatusCreated] != 1 || count[http.StatusConflict] != racers-1 {
		t.Errorf("concurrent creates of one name: status counts %v, want one 201 and %d 409", count, racers-1)
	}
}

// TestErrorPaths pins the HTTP mapping of the remaining typed errors.
func TestErrorPaths(t *testing.T) {
	_, hs := newTestServer(t, config{})
	base := hs.URL
	createSession(t, base, "acme", "s1", "")
	s1 := base + "/v1/tenants/acme/sessions/s1"

	cases := []struct {
		name, method, url, body string
		status                  int
		wantIn                  string
	}{
		{"unknown tenant", "POST", base + "/v1/tenants/nope/sessions/s/query", `{"query":"q() :- r(a, b)."}`,
			http.StatusNotFound, "unknown_tenant"},
		{"unknown session", "POST", base + "/v1/tenants/acme/sessions/nope/query", `{"query":"q() :- r(a, b)."}`,
			http.StatusNotFound, "unknown_session"},
		{"duplicate session", "POST", base + "/v1/tenants/acme/sessions",
			fmt.Sprintf(`{"name":"s1","instance_text":%q}`, "r(a, b)."),
			http.StatusConflict, "session_exists"},
		{"bad session name", "POST", base + "/v1/tenants/acme/sessions", `{"name":"a/b","instance_text":"r(a, b)."}`,
			http.StatusBadRequest, "bad_name"},
		{"unknown body field", "POST", s1 + "/query", `{"qqq":"?"}`,
			http.StatusBadRequest, "bad_request"},
		{"parse error with position", "POST", s1 + "/query", `{"query":"q(V) :- s(U, ."}`,
			http.StatusBadRequest, `"line":1`},
		{"bad semantics", "POST", s1 + "/query", `{"query":"q() :- r(a, b).","semantics":"brave"}`,
			http.StatusBadRequest, "bad_semantics"},
		{"bad engine override", "POST", s1 + "/query", `{"query":"q() :- r(a, b).","engine":"quantum"}`,
			http.StatusBadRequest, "bad_engine"},
		{"bad engine at create", "POST", base + "/v1/tenants/acme/sessions", `{"name":"s9","instance_text":"r(a, b).","engine":"quantum"}`,
			http.StatusBadRequest, "bad_engine"},
		// A structured instance or delta takes no key it does not define,
		// at any depth, and no case variant or repeat of one it does.
		{"unknown key in instance", "POST", base + "/v1/tenants/acme/sessions",
			`{"name":"u1","instance":{"facts":[],"extra":1}}`, http.StatusBadRequest, "bad_request"},
		{"unknown key in fact", "POST", base + "/v1/tenants/acme/sessions",
			`{"name":"u2","instance":{"facts":[{"pred":"r","args":["a"],"extra":1}]}}`, http.StatusBadRequest, "bad_request"},
		{"unknown key in delta", "POST", s1 + "/apply",
			`{"delta":{"added":[],"extra":[]}}`, http.StatusBadRequest, "bad_request"},
		{"case-variant key", "POST", base + "/v1/tenants/acme/sessions",
			`{"name":"u3","instance":{"Facts":[{"pred":"r","args":["a"]}]}}`, http.StatusBadRequest, "bad_request"},
		{"duplicate key", "POST", base + "/v1/tenants/acme/sessions",
			`{"name":"u4","instance":{"facts":[],"facts":[{"pred":"r","args":["a"]}]}}`, http.StatusBadRequest, "bad_request"},
		{"conflicting standing query", "POST", s1 + "/prepare", `{"query":"q(X) :- r(X, Y)."}`,
			0, ""}, // primer: registers q
	}
	for _, tc := range cases {
		code, resp := doJSON(t, tc.method, tc.url, tc.body)
		if tc.status == 0 {
			continue
		}
		if code != tc.status || !strings.Contains(resp, tc.wantIn) {
			t.Errorf("%s: got %d %s, want %d containing %q", tc.name, code, resp, tc.status, tc.wantIn)
		}
	}
	// A different query under an already-registered head name conflicts.
	code, resp := doJSON(t, "POST", s1+"/prepare", `{"query":"q(V) :- s(U, V)."}`)
	if code != http.StatusConflict || !strings.Contains(resp, "query_exists") {
		t.Errorf("conflicting standing query: %d %s, want 409 query_exists", code, resp)
	}
}

// TestOversizedBody pins the body cap: a create and an apply whose bodies
// run one byte past maxBodyBytes get 413 with a JSON error, and the
// tenant's sessions are exactly as before. The bodies are generated
// lazily and stay valid JSON prefixes, so only the cap can stop them.
func TestOversizedBody(t *testing.T) {
	// The server buffers up to maxBodyBytes per request before the cap
	// trips; collect garbage early so the test's peak memory stays near
	// that instead of twice it.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	srv, hs := newTestServer(t, config{})
	createSession(t, hs.URL, "acme", "s1", "")
	s1 := hs.URL + "/v1/tenants/acme/sessions/s1"
	probe := `{"query":"q(X, Y) :- r(X, Y)."}`
	_, before := doJSON(t, "POST", s1+"/query", probe)

	for _, tc := range []struct{ path, prefix string }{
		{"/v1/tenants/acme/sessions", `{"name":"big","instance_text":"`},
		{"/v1/tenants/acme/sessions/s1/apply", `{"insert_text":"`},
	} {
		body := io.MultiReader(strings.NewReader(tc.prefix), &fillReader{c: 'a', n: maxBodyBytes + 1 - len(tc.prefix)})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %.200s", tc.path, rec.Code, rec.Body.String())
		}
		var e struct{ Error, Code string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "body_too_large" {
			t.Errorf("%s: error body %q (%v), want code body_too_large", tc.path, rec.Body.String(), err)
		}
	}

	tn := srv.tenantFor("acme", false)
	tn.mu.Lock()
	n, has := len(tn.sessions), tn.sessions["s1"] != nil
	tn.mu.Unlock()
	if n != 1 || !has {
		t.Errorf("tenant holds %d sessions (s1 present: %v), want only s1", n, has)
	}
	if _, after := doJSON(t, "POST", s1+"/query", probe); after != before {
		t.Errorf("s1 changed after the rejected apply:\nbefore %s\nafter  %s", before, after)
	}
}

// fillReader yields n copies of c without materializing them.
type fillReader struct {
	c byte
	n int
}

func (r *fillReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.c
	}
	r.n -= len(p)
	return len(p), nil
}

// TestApplyCountsNNCViolations pins the apply response of a session whose
// only violation is a NOT NULL-constraint violation: it reports the
// violation, as cqa -json does for the same script.
func TestApplyCountsNNCViolations(t *testing.T) {
	_, hs := newTestServer(t, config{})
	base := hs.URL + "/v1/tenants/acme/sessions"
	code, resp := doJSON(t, "POST", base, fmt.Sprintf(`{"name":"n","instance_text":%q,"constraints_text":%q}`,
		"r(a, b).", "r(X, Y), r(X, Z) -> Y = Z. r(X, Y), isnull(X) -> false."))
	if code != http.StatusCreated {
		t.Fatalf("create session: %d %s", code, resp)
	}
	if code, resp = doJSON(t, "POST", base+"/n/prepare", `{"query":"q(X) :- r(X, Y)."}`); code != http.StatusCreated {
		t.Fatalf("prepare: %d %s", code, resp)
	}
	code, resp = doJSON(t, "POST", base+"/n/apply", `{"insert_text":"r(null, c)."}`)
	if code != http.StatusOK || !strings.Contains(resp, `"consistent":false,"violations":1}`) {
		t.Errorf("apply: got %d %s, want 200 with one violation", code, resp)
	}
}

// TestDirectApplyViolationCount drives an auto FD session, which resolves
// to direct and counts violations off its classification, and a search
// session through the same structured applies: every apply must report the
// search session's verdict and count, and once every conflict is resolved,
// consistent:true with no count.
func TestDirectApplyViolationCount(t *testing.T) {
	_, hs := newTestServer(t, config{})
	base := hs.URL + "/v1/tenants/acme/sessions"
	const (
		db = `r(a, b, 1). r(a, c, 2). r(a, c, 3). r(d, e, 4). r(null, x, 5). s(a, 1).`
		ic = `r(K, V1, W1), r(K, V2, W2) -> V1 = V2.`
	)
	for name, eng := range map[string]string{"fd": "auto", "ref": "search"} {
		code, resp := doJSON(t, "POST", base, fmt.Sprintf(`{"name":%q,"instance_text":%q,"constraints_text":%q,"engine":%q}`, name, db, ic, eng))
		if code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, resp)
		}
	}
	fact := func(pred string, args ...string) string {
		return fmt.Sprintf(`{"pred":%q,"args":[%s]}`, pred, strings.Join(args, ","))
	}
	steps := []struct {
		delta string
		want  int
	}{
		{`{"added":[` + fact("r", `"d"`, `"f"`, "6") + `]}`, 6},
		{`{"removed":[` + fact("r", `"a"`, `"c"`, "2") + `]}`, 4},
		{`{"added":[` + fact("s", `"b"`, "2") + `]}`, 4},
		{`{"removed":[` + fact("r", `"a"`, `"b"`, "1") + `]}`, 2},
		{`{"removed":[` + fact("r", `"d"`, `"f"`, "6") + `],"added":[` + fact("r", `null`, `"y"`, "7") + `]}`, 0},
	}
	for i, st := range steps {
		var got [2]struct {
			Consistent bool `json:"consistent"`
			Violations *int `json:"violations"`
		}
		for j, name := range []string{"fd", "ref"} {
			code, resp := doJSON(t, "POST", base+"/"+name+"/apply", `{"delta":`+st.delta+`}`)
			if code != http.StatusOK {
				t.Fatalf("step %d: apply %s: %d %s", i, name, code, resp)
			}
			if err := json.Unmarshal([]byte(resp), &got[j]); err != nil {
				t.Fatal(err)
			}
		}
		fd, ref := got[0], got[1]
		switch {
		case fd.Consistent != ref.Consistent || (fd.Violations == nil) != (ref.Violations == nil) ||
			fd.Violations != nil && *fd.Violations != *ref.Violations:
			t.Fatalf("step %d: direct reports %+v, search %+v", i, fd, ref)
		case st.want == 0 && (!fd.Consistent || fd.Violations != nil):
			t.Fatalf("step %d: want consistent with no count, got %+v", i, fd)
		case st.want > 0 && (fd.Consistent || fd.Violations == nil || *fd.Violations != st.want):
			t.Fatalf("step %d: want %d violations, got %+v", i, st.want, fd)
		}
	}
}

// TestRePrepareTellsConstantFromVariable pins the standing-query identity:
// re-preparing the identical text is idempotent (200), and re-preparing
// the query with the variable C15 in place of the string constant "C15"
// clashes (409), although both print as q(X) :- p(X,C15).
func TestRePrepareTellsConstantFromVariable(t *testing.T) {
	_, hs := newTestServer(t, config{})
	base := hs.URL + "/v1/tenants/acme/sessions"
	code, resp := doJSON(t, "POST", base, fmt.Sprintf(`{"name":"c","instance_text":%q,"constraints_text":%q}`,
		`p(a, "C15"). p(b, c16).`, "p(X, Y), p(X, Z) -> Y = Z."))
	if code != http.StatusCreated {
		t.Fatalf("create session: %d %s", code, resp)
	}
	prepare := func(q string) (int, string) {
		return doJSON(t, "POST", base+"/c/prepare", fmt.Sprintf(`{"query":%q}`, q))
	}
	const answer = `"tuples":[["a"]]`
	if code, resp := prepare(`q(X) :- p(X, "C15").`); code != http.StatusCreated || !strings.Contains(resp, answer) {
		t.Fatalf("prepare: %d %s, want 201 with %s", code, resp, answer)
	}
	if code, resp := prepare(`q(X) :- p(X, "C15").`); code != http.StatusOK || !strings.Contains(resp, answer) {
		t.Errorf("identical re-prepare: %d %s, want 200 with %s", code, resp, answer)
	}
	if code, resp := prepare(`q(X) :- p(X, C15).`); code != http.StatusConflict || !strings.Contains(resp, "query_exists") {
		t.Errorf("re-prepare with a variable: %d %s, want 409 query_exists", code, resp)
	}
}

// TestSubscribeSSE applies an update while a subscriber listens and checks
// the pushed event carries the same wire.QueryUpdate the apply response
// reported.
func TestSubscribeSSE(t *testing.T) {
	_, hs := newTestServer(t, config{})
	base := hs.URL
	createSession(t, base, "acme", "s1", "")
	s1 := base + "/v1/tenants/acme/sessions/s1"
	if code, resp := doJSON(t, "POST", s1+"/prepare", `{"query":"p :- r(a, b)."}`); code != http.StatusCreated {
		t.Fatalf("prepare: %d %s", code, resp)
	}

	sub, err := http.Get(s1 + "/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if ct := sub.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type %q", ct)
	}
	events := make(chan string, 4)
	go func() {
		sc := bufio.NewScanner(sub.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				events <- data
			}
		}
	}()

	code, resp := doJSON(t, "POST", s1+"/apply", `{"delete_text":"r(a, c)."}`)
	if code != http.StatusOK {
		t.Fatalf("apply: %d %s", code, resp)
	}
	want := `{"query":"p() :- r(\"a\", \"b\").","boolean":true,"boolean_changed":true}`
	select {
	case got := <-events:
		if got != want {
			t.Errorf("SSE event:\n got %s\nwant %s", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE event within 5s of the apply")
	}
}

// TestDirectCoversBudget pins the direct engine's state budget: on a
// session created with max_states 2, a boolean query whose one candidate
// entangles three two-class key groups needs seven covering nodes and gets
// 422 state_limit, and the session then answers a query whose candidates
// each need one node.
func TestDirectCoversBudget(t *testing.T) {
	_, hs := newTestServer(t, config{})
	db := "r(a, 1). r(a, 2). r(b, 1). r(b, 2). r(c, 1). r(c, 2)."
	code, resp := doJSON(t, "POST", hs.URL+"/v1/tenants/acme/sessions",
		fmt.Sprintf(`{"name":"fd","instance_text":%q,"constraints_text":%q,"engine":"auto","max_states":2}`,
			db, "r(X, Y), r(X, Z) -> Y = Z."))
	if code != http.StatusCreated || !strings.Contains(resp, `"engine":"direct"`) {
		t.Fatalf("create: %d %s", code, resp)
	}
	fd := hs.URL + "/v1/tenants/acme/sessions/fd"
	code, resp = doJSON(t, "POST", fd+"/query", `{"query":"q :- r(a, Y1), r(b, Y2), r(c, Y3)."}`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(resp, `"code":"state_limit"`) {
		t.Fatalf("entangled query: %d %s, want 422 state_limit", code, resp)
	}
	code, resp = doJSON(t, "POST", fd+"/query", `{"query":"q(X) :- r(X, Y)."}`)
	if want := `"tuples":[["a"],["b"],["c"]]`; code != http.StatusOK || !strings.Contains(resp, want) {
		t.Fatalf("cheap query after the limit: %d %s, want 200 with %s", code, resp, want)
	}
}

// TestEngineOverrideKeepsBudgets pins that a per-request engine override
// answers under the budgets its session was created with: a query that
// exceeds the session's max_states or max_candidates fails the same way
// whether or not the request names an engine.
func TestEngineOverrideKeepsBudgets(t *testing.T) {
	_, hs := newTestServer(t, config{})
	db := "r(a, 1). r(a, 2). r(b, 1). r(b, 2). r(c, 1). r(c, 2)."
	for _, tc := range []struct{ engine, budget, code string }{
		{"search", `"max_states":2`, "state_limit"},
		{"cautious", `"max_candidates":1`, "candidate_limit"},
		{"program", `"max_candidates":1`, "candidate_limit"},
	} {
		code, resp := doJSON(t, "POST", hs.URL+"/v1/tenants/acme/sessions",
			fmt.Sprintf(`{"name":%q,"instance_text":%q,"constraints_text":%q,"engine":%q,%s}`,
				tc.engine, db, "r(X, Y), r(X, Z) -> Y = Z.", tc.engine, tc.budget))
		if code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", tc.engine, code, resp)
		}
		url := hs.URL + "/v1/tenants/acme/sessions/" + tc.engine + "/query"
		for _, override := range []string{"", fmt.Sprintf(`,"engine":%q`, tc.engine)} {
			code, resp = doJSON(t, "POST", url, `{"query":"q(X) :- r(X, Y)."`+override+`}`)
			if code != http.StatusUnprocessableEntity || !strings.Contains(resp, `"code":"`+tc.code+`"`) {
				t.Errorf("%s session under %s, query%s: %d %s, want 422 %s",
					tc.engine, tc.budget, override, code, resp, tc.code)
			}
		}
	}
}

// TestEnginePanicDropsSession pins what an engine panic costs: one
// session. Each of apply, query and prepare runs on a session whose
// *session.Session is swapped for nil, so the engine call panics; the
// request gets a JSON 500, the panic is logged with its stack, the session
// answers 404 afterwards, and a sibling session in the same tenant still
// applies and answers, more times than the tenant has in-flight slots.
func TestEnginePanicDropsSession(t *testing.T) {
	var logged strings.Builder
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	srv, hs := newTestServer(t, config{MaxInflight: 2})
	base := hs.URL + "/v1/tenants/acme/sessions/"
	for _, name := range []string{"apply", "query", "prepare", "good"} {
		createSession(t, hs.URL, "acme", name, "")
	}
	tn := srv.tenantFor("acme", false)
	for _, name := range []string{"apply", "query", "prepare"} {
		tn.mu.Lock()
		ls := tn.sessions[name]
		tn.mu.Unlock()
		ls.mu.Lock()
		ls.s = nil
		ls.mu.Unlock()
	}
	for _, tc := range []struct{ name, path, body string }{
		{"apply", "/apply", `{"delete_text":"r(a, c)."}`},
		{"query", "/query", `{"query":"q(V) :- s(U, V)."}`},
		{"prepare", "/prepare", `{"query":"q(V) :- s(U, V)."}`},
	} {
		code, resp := doJSON(t, "POST", base+tc.name+tc.path, tc.body)
		if code != http.StatusInternalServerError || !strings.Contains(resp, `"code":"internal"`) {
			t.Errorf("%s on a broken session: %d %s, want 500 internal", tc.name, code, resp)
		}
		code, resp = doJSON(t, "POST", base+tc.name+"/query", `{"query":"q(V) :- s(U, V)."}`)
		if code != http.StatusNotFound || !strings.Contains(resp, "unknown_session") {
			t.Errorf("%s after the panic: %d %s, want 404 unknown_session", tc.name, code, resp)
		}
	}
	if !strings.Contains(logged.String(), "panic in session acme/apply") || !strings.Contains(logged.String(), "goroutine") {
		t.Errorf("panic not logged with its stack:\n%s", logged.String())
	}
	if code, resp := doJSON(t, "POST", base+"good/apply", `{"delete_text":"r(a, c)."}`); code != http.StatusOK {
		t.Fatalf("sibling apply: %d %s", code, resp)
	}
	want := `"tuples":[["a"]]`
	for i := 0; i < 3*cap(tn.inflight); i++ {
		if code, resp := doJSON(t, "POST", base+"good/query", `{"query":"q(V) :- s(U, V)."}`); code != http.StatusOK || !strings.Contains(resp, want) {
			t.Fatalf("sibling query %d: %d %s, want 200 with %s", i, code, resp, want)
		}
	}
}

// TestEnginePanicFencesQueuedRequests pins that a request which found a
// session before an engine panic does not run on the half-updated session.
// Two applies find a broken session and queue on its mutex; whichever runs
// first panics and gets 500, and the other gets 404 unknown_session.
func TestEnginePanicFencesQueuedRequests(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	srv, hs := newTestServer(t, config{MaxInflight: 2})
	createSession(t, hs.URL, "acme", "broken", "")
	tn := srv.tenantFor("acme", false)
	tn.mu.Lock()
	ls := tn.sessions["broken"]
	tn.mu.Unlock()

	ls.mu.Lock()
	ls.s = nil
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(hs.URL+"/v1/tenants/acme/sessions/broken/apply", "application/json",
				strings.NewReader(`{"delete_text":"r(a, c)."}`))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// An apply takes an in-flight slot after its lookup, so two taken
	// slots mean both requests found the session.
	for deadline := time.Now().Add(5 * time.Second); len(tn.inflight) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			ls.mu.Unlock()
			t.Fatal("the applies never found the session")
		}
	}
	ls.mu.Unlock()
	got := []int{<-codes, <-codes}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if got[0] != http.StatusNotFound || got[1] != http.StatusInternalServerError {
		t.Fatalf("queued applies on a broken session got %v, want one 404 and one 500", got)
	}
}
