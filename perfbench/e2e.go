package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/wire"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux ABI Go supports).
const clockTicks = 100

const tenantPath = "/v1/tenants/bench/sessions"

// buildCQAD compiles cmd/cqad of the checkout at root into .bench_build.
func buildCQAD(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "cqad")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cqad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/cqad: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one cqad subprocess on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

// startCQAD starts bin on a free loopback port with default flags (no
// worker pool, default GOGC and GOMAXPROCS) and waits until it accepts
// connections.
func startCQAD(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, "-addr", addr)
	d.cmd.Stderr = &d.stderr
	// Take cqad down with the benchmark if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cqad: %v", err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cqad did not listen on %s: %v\n%s", addr, err, d.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop interrupts cqad (its graceful shutdown path), kills it if it does
// not exit within ten seconds, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt) // already exited is fine: Wait reports it
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status of an interrupted daemon carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// cpuMS reads the process's user+system CPU time in milliseconds.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// peakRSSMB reads the process's VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// client is one closed-loop client over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 170 * time.Second}}
}

// do sends one request and reads the whole response; the duration covers
// send through the last body byte.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

// e2eResult is one end-to-end run against cqad.
type e2eResult struct {
	lat   [numClasses][]float64 // ms, measured ops in op order
	all   []float64             // ms, every measured op
	setup []float64             // s per session creation
	wall  float64               // s, measured phase
	cpuMS float64               // cqad CPU over the measured phase
	rssMB float64
	tally tally
}

// setUp creates (and, but for the last, deletes) w.setups sessions,
// timing each from POST create through the last standing-query prepare.
// It returns the last session's path and its prepared query names.
func (w *workload) setUp(c *client, t *tally) (string, []string, []float64, error) {
	var (
		path  string
		names []string
		times []float64
	)
	for i := 0; i < w.setups; i++ {
		req := w.create
		req.Name = fmt.Sprintf("s%d", i)
		body, err := json.Marshal(req)
		if err != nil {
			return "", nil, nil, err
		}
		path = tenantPath + "/" + req.Name
		t0 := time.Now()
		status, resp, _, err := c.do("POST", tenantPath, body)
		if err != nil {
			return "", nil, nil, fmt.Errorf("create: %v", err)
		}
		if err := w.checkCreate(status, resp); err != nil {
			t.record(kindCreate, err)
			return "", nil, nil, fmt.Errorf("create: %v", err)
		}
		t.record(kindCreate, nil)
		names = names[:0]
		for qi, sq := range w.standing {
			pb, _ := json.Marshal(wire.PrepareRequest{Query: sq.text})
			status, resp, _, err := c.do("POST", path+"/prepare", pb)
			if err != nil {
				return "", nil, nil, fmt.Errorf("prepare: %v", err)
			}
			name, err := w.checkPrepare(qi, status, resp)
			t.record(kindPrepare, err)
			if err != nil {
				return "", nil, nil, fmt.Errorf("prepare: %v", err)
			}
			names = append(names, name)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < w.setups-1 {
			status, resp, _, err := c.do("DELETE", path, nil)
			if err == nil {
				err = decodeBody(status, http.StatusNoContent, resp, nil)
			}
			t.record(kindDelete, err)
			if err != nil {
				return "", nil, nil, fmt.Errorf("delete: %v", err)
			}
		}
	}
	return path, names, times, nil
}

// runE2E drives w through a fresh cqad: set-up, warm-up, then the measured
// ops, whose responses are checked after the timed phase.
func runE2E(bin string, w *workload) (*e2eResult, error) {
	d, err := startCQAD(bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.tr.CloseIdleConnections()

	res := &e2eResult{}
	path, names, setup, err := w.setUp(c, &res.tally)
	if err != nil {
		return res, err
	}
	res.setup = setup

	for i := range w.warmup {
		o := &w.warmup[i]
		status, body, _, err := c.do("POST", path+o.class.path(), o.body)
		if err != nil {
			return res, fmt.Errorf("warm-up op %d: %v", i, err)
		}
		res.tally.record(kind(o.class), w.checkOp(o, names, status, body))
	}

	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, len(w.ops))
	// Keep the client's own collector off the two shared cores while
	// timing; the measured phase allocates a few MB at most.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pid := d.cmd.Process.Pid
	cpu0, err := cpuMS(pid)
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	for i := range w.ops {
		o := &w.ops[i]
		status, body, dt, err := c.do("POST", path+o.class.path(), o.body)
		if err != nil {
			return res, fmt.Errorf("op %d: %v", i, err)
		}
		replies[i] = reply{status, body}
		ms := float64(dt.Nanoseconds()) / 1e6
		res.lat[o.class] = append(res.lat[o.class], ms)
		res.all = append(res.all, ms)
	}
	res.wall = time.Since(t0).Seconds()
	cpu1, err := cpuMS(pid)
	if err != nil {
		return res, err
	}
	res.cpuMS = cpu1 - cpu0
	if res.rssMB, err = peakRSSMB(pid); err != nil {
		return res, err
	}
	for i := range w.ops {
		o := &w.ops[i]
		res.tally.record(kind(o.class), w.checkOp(o, names, replies[i].status, replies[i].body))
	}
	return res, nil
}

// e2eMetrics are the end-to-end metrics of one run, in BENCHMARK.json order.
var e2eMetrics = []struct {
	name, unit string
	get        func(r *e2eResult) float64
}{
	{"setup_s", "s", func(r *e2eResult) float64 { return median(r.setup) }},
	{"ops_per_s", "1/s", func(r *e2eResult) float64 { return float64(len(r.all)) / r.wall }},
	{"cpu_ms_per_op", "ms", func(r *e2eResult) float64 { return r.cpuMS / float64(len(r.all)) }},
	{"rss_peak_mb", "MB", func(r *e2eResult) float64 { return r.rssMB }},
	{"apply_relevant_p50_ms", "ms", func(r *e2eResult) float64 { return median(r.lat[applyRelevant]) }},
	{"apply_irrelevant_p50_ms", "ms", func(r *e2eResult) float64 { return median(r.lat[applyIrrelevant]) }},
	{"query_p50_ms", "ms", func(r *e2eResult) float64 { return median(r.lat[adhocQuery]) }},
	{"p90_ms", "ms", func(r *e2eResult) float64 { return quantile(r.all, 0.9) }},
}

func (r *e2eResult) metrics() map[string]metric {
	m := map[string]metric{}
	for _, em := range e2eMetrics {
		m[em.name] = metric{Value: em.get(r), Unit: em.unit}
	}
	return m
}

// report prints the ungated diagnostics beside the metrics: per-class
// sample counts and tails, the session-age slowdown, and the tally.
func (r *e2eResult) report(out io.Writer, w *workload) {
	fmt.Fprintf(out, "workload %s: %d measured ops (%d warm-up), %d facts, %d violations, %d repairs\n",
		w.name, len(w.ops), len(w.warmup), w.facts, w.violations, w.repairs)
	for c := class(0); c < numClasses; c++ {
		xs := r.lat[c]
		fmt.Fprintf(out, "  %-17s n=%-5d p50=%.3f ms  %s\n", c, len(xs), median(xs), tail(xs))
	}
	fmt.Fprintf(out, "  session.age_slowdown (apply_relevant p50, last tenth / first tenth) = %.3f\n", ageSlowdown(r.lat[applyRelevant]))
	fmt.Fprintf(out, "  apply_relevant p50 by tenth of the run (ms): %.2f\n", tenths(r.lat[applyRelevant]))
	fmt.Fprintf(out, "  setup runs (s): %.4f\n", r.setup)
	printTally(out, &r.tally)
	for _, em := range e2eMetrics {
		fmt.Fprintf(out, "  %-24s %12.4f %s\n", em.name, em.get(r), em.unit)
	}
}
