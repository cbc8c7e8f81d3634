package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/constraint"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/wire"
)

// span is one traced interval; times are ns since the traced pass began.
// Spans of one op share Op and Class; set-up spans have Op -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory. Disabled, begin and end cost nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	op    int
	class string
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Class: t.class, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// inproc mirrors cqad's handlers in-process, with a span around each call
// into wire, parser and session.
type inproc struct {
	w     *workload
	tr    *tracer
	sess  *session.Session
	qs    []*query.Q
	order []*standingDiff
}

// standingDiff is a prepared query plus the diff its subscription recorded
// during the current apply, as in cqad.
type standingDiff struct {
	p    *session.Prepared
	diff *session.QueryUpdate
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode builds and marshals a response inside the wire.encode span, so
// rendering (query text, tuple conversion) is charged to the wire layer.
func (ip *inproc) encode(build func() any) []byte {
	sp := ip.tr.begin("wire.encode")
	b, _ := json.Marshal(build()) // the wire types always marshal
	ip.tr.end(sp)
	return b
}

func (ip *inproc) create(body []byte) (int, []byte, error) {
	sp := ip.tr.begin("wire.instance_decode")
	var req wire.CreateSessionRequest
	err := strictDecode(body, &req)
	var d *relational.Instance
	if err == nil && req.Instance != nil {
		d = req.Instance.ToInstance()
	}
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	if req.InstanceText != "" {
		sp = ip.tr.begin("parser.instance")
		d, err = parser.Instance(req.InstanceText)
		ip.tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
	}
	var set *constraint.Set
	sp = ip.tr.begin("parser.constraints")
	if req.Constraints != nil {
		set, err = req.Constraints.ToSet()
	} else {
		set, err = parser.Constraints(req.ConstraintsText)
	}
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	opts, err := engine.Options(req.Engine, req.Workers)
	if err != nil {
		return 0, nil, err
	}
	sp = ip.tr.begin("session.new")
	ip.sess = session.New(d, set, opts)
	consistent := ip.sess.Consistent()
	ip.tr.end(sp)
	ip.qs, ip.order = nil, nil
	return http.StatusCreated, ip.encode(func() any {
		return wire.CreateSessionResponse{
			Tenant: "bench", Name: req.Name, Facts: d.Len(),
			Constraints: len(set.ICs) + len(set.NNCs), Consistent: consistent,
			Engine: engine.NameOf(ip.sess.Options().Engine),
		}
	}), nil
}

func (ip *inproc) prepare(body []byte) (int, []byte, error) {
	sp := ip.tr.begin("wire.decode")
	var req wire.PrepareRequest
	err := strictDecode(body, &req)
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = ip.tr.begin("parser.query")
	q, err := parser.Query(req.Query)
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = ip.tr.begin("session.prepare")
	p, err := ip.sess.PrepareCtx(context.Background(), q)
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	st := &standingDiff{p: p}
	p.Subscribe(func(u session.QueryUpdate) { st.diff = &u })
	ip.qs = append(ip.qs, q)
	ip.order = append(ip.order, st)
	return http.StatusCreated, ip.encode(func() any {
		ans := wire.Answer{Boolean: p.Boolean()}
		if !q.IsBoolean() {
			ans.Tuples = wire.FromTuples(p.Answers())
		}
		return wire.AnswerResponse{Query: q.String(), Answer: ans, Stale: !p.Valid()}
	}), nil
}

func (ip *inproc) apply(body []byte) (int, []byte, session.ApplyResult, error) {
	sp := ip.tr.begin("wire.decode")
	var req wire.ApplyRequest
	err := strictDecode(body, &req)
	var delta relational.Delta
	if err == nil && req.Delta != nil {
		delta = req.Delta.ToDelta()
	}
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, session.ApplyResult{}, err
	}
	for _, part := range []struct {
		text string
		into *[]relational.Fact
	}{{req.InsertText, &delta.Added}, {req.DeleteText, &delta.Removed}} {
		if part.text == "" {
			continue
		}
		sp = ip.tr.begin("parser.facts")
		inst, err := parser.Instance(part.text)
		ip.tr.end(sp)
		if err != nil {
			return 0, nil, session.ApplyResult{}, err
		}
		*part.into = append(*part.into, inst.Facts()...)
	}
	sp = ip.tr.begin("session.apply")
	res, err := ip.sess.ApplyCtx(context.Background(), delta)
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, res, err
	}
	sp = ip.tr.begin("session.violations")
	resp := wire.ApplyResponse{Consistent: ip.sess.Consistent()}
	if !resp.Consistent {
		resp.Violations = len(ip.sess.Violations())
	}
	ip.tr.end(sp)
	return http.StatusOK, ip.encode(func() any {
		resp.Result = wire.FromApplyResult(res)
		for _, st := range ip.order {
			if st.diff != nil {
				resp.Updates = append(resp.Updates, wire.FromQueryUpdate(*st.diff))
				st.diff = nil
			}
		}
		return resp
	}), res, nil
}

func (ip *inproc) query(body []byte) (int, []byte, *query.Q, error) {
	sp := ip.tr.begin("wire.decode")
	var req wire.QueryRequest
	err := strictDecode(body, &req)
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, nil, err
	}
	sp = ip.tr.begin("parser.query")
	q, err := parser.Query(req.Query)
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, nil, err
	}
	sp = ip.tr.begin("session.answer")
	ans, err := ip.sess.AnswerCtx(context.Background(), q)
	ip.tr.end(sp)
	if err != nil {
		return 0, nil, nil, err
	}
	return http.StatusOK, ip.encode(func() any {
		return wire.AnswerResponse{Query: q.String(), Answer: wire.FromAnswer(ans)}
	}), q, nil
}

// passResult is one in-process replay.
type passResult struct {
	lat       [numClasses][]float64 // op durations, ms
	setup     [][]span              // spans of each creation (traced pass)
	directNew []float64             // direct.New probe per creation, ms
	respBytes []float64
	applies   []session.ApplyResult // measured applies, in order
	classes   []class               // class of each measured apply
	tally     tally
	pr        *probes
	tr        *tracer
}

// replay runs the workload in-process. With traced set it records spans
// and runs the probes after every op.
func replay(w *workload, nSetups int, traced bool) (*passResult, error) {
	runtime.GC()
	tr := &tracer{t0: time.Now(), op: -1, class: "setup", spans: make([]span, 0, 64*(len(w.ops)+nSetups))}
	ip := &inproc{w: w, tr: tr}
	res := &passResult{tr: tr}
	var names []string
	for i := 0; i < nSetups; i++ {
		tr.on = traced
		first := len(tr.spans)
		root := tr.begin("create")
		req := w.create
		req.Name = fmt.Sprintf("s%d", i)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		status, resp, err := ip.create(body)
		if err == nil {
			err = w.checkCreate(status, resp)
		}
		res.tally.record(kindCreate, err)
		if err != nil {
			return res, fmt.Errorf("create: %v", err)
		}
		names = names[:0]
		for qi, sq := range w.standing {
			pb, _ := json.Marshal(wire.PrepareRequest{Query: sq.text})
			status, resp, err := ip.prepare(pb)
			var name string
			if err == nil {
				name, err = w.checkPrepare(qi, status, resp)
			}
			res.tally.record(kindPrepare, err)
			if err != nil {
				return res, fmt.Errorf("prepare: %v", err)
			}
			names = append(names, name)
		}
		tr.end(root)
		if traced {
			res.setup = append(res.setup, tr.spans[first:])
			res.pr = newProbes(w, ip.sess, ip.qs, tr)
			res.directNew = append(res.directNew, res.pr.samples["direct.new_ms"]...)
		}
	}

	all := append(append([]op(nil), w.warmup...), w.ops...)
	for i := range all {
		o := &all[i]
		measuring := i >= len(w.warmup)
		tr.on = traced && measuring
		tr.op, tr.class = i-len(w.warmup), o.class.String()
		if res.pr != nil {
			res.pr.record = measuring
			res.pr.beforeOp(tr.op)
		}
		root := tr.begin("op")
		t0 := time.Now()
		var (
			status int
			resp   []byte
			ar     session.ApplyResult
			q      *query.Q
			err    error
		)
		if o.class == adhocQuery {
			status, resp, q, err = ip.query(o.body)
		} else {
			status, resp, ar, err = ip.apply(o.body)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(root)
		if err == nil {
			err = w.checkOp(o, names, status, resp)
		}
		res.tally.record(kind(o.class), err)
		if err != nil {
			return res, fmt.Errorf("op %d (%s): %v", i, o.class, err)
		}
		if res.pr != nil {
			if q != nil {
				res.pr.afterQuery(q)
			} else {
				res.pr.afterApply(o.class, ar)
			}
		}
		if !measuring {
			continue
		}
		res.lat[o.class] = append(res.lat[o.class], ms)
		res.respBytes = append(res.respBytes, float64(len(resp)))
		if o.class != adhocQuery {
			res.applies = append(res.applies, ar)
			res.classes = append(res.classes, o.class)
		}
	}
	return res, nil
}

// runTraced is --trace 1: the end-to-end pass, a bare in-process pass and
// a traced in-process pass over the same op stream.
func runTraced(bin string, w *workload, spansPath string) (result, error) {
	var res result
	e2e, err := runE2E(bin, w)
	if e2e != nil {
		res.Attempted, res.Failed = e2e.tally.totals()
	}
	if err != nil {
		return res, err
	}
	bare, err := replay(w, 1, false)
	if bare != nil {
		e2e.tally.add(&bare.tally)
	}
	if err != nil {
		return res, fmt.Errorf("in-process pass: %v", err)
	}
	traced, err := replay(w, w.setups, true)
	if traced != nil {
		e2e.tally.add(&traced.tally)
	}
	if err != nil {
		return res, fmt.Errorf("traced pass: %v", err)
	}
	res.Attempted, res.Failed = e2e.tally.totals()
	if errs := traced.pr.errs; len(errs) > 0 {
		return res, fmt.Errorf("probes: %v", errs)
	}
	if err := writeSpans(spansPath, traced.tr.spans); err != nil {
		return res, err
	}
	summarize(os.Stdout, w, traced.tr.spans)
	printTally(os.Stdout, &e2e.tally)
	res.Metrics = layerMetrics(e2e, bare, traced)
	return res, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %v", err)
	}
	return nil
}

// selfTimes returns, per measured op, each non-probe span name's self time
// (duration minus the part its children cover) in ms, plus the op span's
// duration.
func selfTimes(spans []span) (self map[int]map[string]float64, opMS map[int]float64, opClass map[int]string) {
	self, opMS, opClass = map[int]map[string]float64{}, map[int]float64{}, map[int]string{}
	byID := map[int]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	child := map[int]float64{}
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			child[s.Parent] += s.ms()
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Probe || s.Op < 0 {
			continue
		}
		if self[s.Op] == nil {
			self[s.Op] = map[string]float64{}
		}
		self[s.Op][s.Name] += s.ms() - child[s.ID]
		if s.Name == "op" {
			opMS[s.Op] = s.ms()
			opClass[s.Op] = s.Class
		}
	}
	return self, opMS, opClass
}

// summarize prints each layer's self time per class and the share of the
// op span the wire, parser and session spans account for.
func summarize(out io.Writer, w *workload, spans []span) {
	self, opMS, opClass := selfTimes(spans)
	fmt.Fprintf(out, "traced %s: self time per op (ms, mean over the class)\n", w.name)
	for c := class(0); c < numClasses; c++ {
		tot := map[string]float64{}
		n, opTot := 0, 0.0
		for id, cl := range opClass {
			if cl != c.String() {
				continue
			}
			n++
			opTot += opMS[id]
			for name, v := range self[id] {
				tot[name] += v
			}
		}
		if n == 0 {
			continue
		}
		names := make([]string, 0, len(tot))
		for name := range tot {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "  %-17s n=%-5d op=%.4f", c, n, opTot/float64(n))
		for _, name := range names {
			fmt.Fprintf(out, "  %s=%.4f", name, tot[name]/float64(n))
		}
		fmt.Fprintf(out, "  explained=%.2f%%\n", 100*(opTot-tot["op"])/opTot)
	}
	probe := map[string][]float64{}
	for i := range spans {
		if spans[i].Probe {
			probe[spans[i].Name] = append(probe[spans[i].Name], spans[i].ms())
		}
	}
	names := make([]string, 0, len(probe))
	for name := range probe {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  probe %-20s n=%-6d p50=%.4f ms\n", name, len(probe[name]), median(probe[name]))
	}
}
