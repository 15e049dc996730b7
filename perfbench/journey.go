package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procOut is one finished child process.
type procOut struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// runProc runs a CLI to completion and reports its wall time and peak
// RSS (getrusage of the child).
func runProc(bin string, args ...string) (procOut, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	p := procOut{wall: time.Since(start), stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return p, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, tail(errb.Bytes()))
	}
	return p, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sameFile reports whether two files hold the same bytes.
func sameFile(a, b string) (bool, error) {
	fa, err := os.Open(a)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	ba, bb := make([]byte, 1<<20), make([]byte, 1<<20)
	for {
		na, ea := io.ReadFull(fa, ba)
		nb, eb := io.ReadFull(fb, bb)
		if !bytes.Equal(ba[:na], bb[:nb]) {
			return false, nil
		}
		// Equal chunks with an end of file on either side mean both
		// ended: a shorter chunk on one side would have differed.
		if ea == io.EOF || ea == io.ErrUnexpectedEOF || eb == io.EOF || eb == io.ErrUnexpectedEOF {
			return true, nil
		}
		if err := errors.Join(ea, eb); err != nil {
			return false, err
		}
	}
}

// setupDatasets synthesizes every dataset w.setups times with meshgen
// and returns the first copy's paths and the median set-up time. Every
// later copy must be byte-identical to the first.
func setupDatasets(e *env, w *workload) (map[string]string, float64, error) {
	paths := make(map[string]string)
	var times []float64
	for r := 0; r < w.setups; r++ {
		dir := filepath.Join(e.work, fmt.Sprintf("setup%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		for _, ds := range w.datasets {
			out := filepath.Join(dir, ds.name+".bin")
			if _, err := runProc(e.tool("meshgen"), append(ds.gen, "-out", out)...); !e.t.op(err) {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
		for _, ds := range w.datasets {
			p := filepath.Join(dir, ds.name+".bin")
			if r == 0 {
				paths[ds.name] = p
				continue
			}
			same, err := sameFile(p, paths[ds.name])
			if err == nil && !same {
				err = fmt.Errorf("meshgen %s: repeat synthesis differs from the first", ds.name)
			}
			e.t.op(err)
		}
		if r > 0 {
			os.RemoveAll(dir)
		}
	}
	return paths, median(times), nil
}

var expHeader = regexp.MustCompile(`^== (\S+): .* ==$`)

// splitExperiments cuts `meshanalyze -exp all` output into per-ID texts,
// each exactly what meshd serves for /experiments/{id}.
func splitExperiments(out []byte) (map[string][]byte, []string) {
	exps := make(map[string][]byte)
	var ids []string
	var cur string
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if m := expHeader.FindSubmatch(bytes.TrimRight(line, "\n")); m != nil {
			cur = string(m[1])
			ids = append(ids, cur)
		}
		if cur != "" {
			exps[cur] = append(exps[cur], line...)
		}
	}
	return exps, ids
}

// batch holds the CLI phase's outputs: the streamed reports (the oracle
// for every other rendering) and meshanalyze's per-experiment texts.
type batch struct {
	reports map[string][]byte
	exps    map[string]map[string][]byte
	ids     map[string][]string
}

// runBatch runs the reporting CLIs: w.passes streamed passes, w.ckpts
// checkpointed sharded runs, and w.resumes resumes over the last one's
// completed checkpoints. Every report must equal the first streamed one modulo run
// lines.
func runBatch(e *env, w *workload, paths map[string]string, m map[string]metric) (*batch, error) {
	b := &batch{reports: map[string][]byte{}, exps: map[string]map[string][]byte{}, ids: map[string][]string{}}
	report := filepath.Join(e.work, "report.md")
	run := func(what string, ds input, args ...string) (procOut, error) {
		p, err := runProc(e.tool("meshreport"), append([]string{"-data", paths[ds.name], "-out", report}, args...)...)
		if !e.t.op(err) {
			return p, err
		}
		got, err := os.ReadFile(report)
		if err != nil {
			return p, err
		}
		if want, ok := b.reports[ds.name]; ok {
			e.t.op(sameReport(what+" "+ds.name, got, want))
		} else {
			b.reports[ds.name] = got
		}
		return p, nil
	}
	var passes []float64
	rss := 0.0
	for i := 0; i < w.passes; i++ {
		sum := 0.0
		for _, ds := range w.datasets {
			p, err := run("streamed", ds, "-stream")
			if err != nil {
				return nil, err
			}
			sum += p.wall.Seconds()
			rss = max(rss, p.rssMB)
		}
		passes = append(passes, sum)
	}
	m["report_s"] = metric{median(passes), "s"}
	m["max_rss_mb"] = metric{rss, "MB"}

	ckdir := func(ds input, i int) string { return filepath.Join(e.work, "ckpt", fmt.Sprintf("%s-%d", ds.name, i)) }
	last := func(ds input) []string {
		return []string{"-shards", fmt.Sprint(w.shards), "-checkpoint", ckdir(ds, w.ckpts-1),
			"-checkpoint-every", fmt.Sprint(w.ckptEvery)}
	}
	var ckpts []float64
	rss = 0
	for i := 0; i < w.ckpts; i++ {
		sum := 0.0
		for _, ds := range w.datasets {
			p, err := run("checkpointed", ds, "-shards", fmt.Sprint(w.shards), "-checkpoint", ckdir(ds, i),
				"-checkpoint-every", fmt.Sprint(w.ckptEvery))
			if err != nil {
				return nil, err
			}
			sum += p.wall.Seconds()
			rss = max(rss, p.rssMB)
			if i > 0 {
				os.RemoveAll(ckdir(ds, i-1))
			}
		}
		ckpts = append(ckpts, sum)
	}
	m["ckpt_report_s"] = metric{median(ckpts), "s"}
	m["ckpt_rss_mb"] = metric{rss, "MB"}

	var resumes []float64
	for i := 0; i < w.resumes; i++ {
		sum := 0.0
		for _, ds := range w.datasets {
			p, err := run("resumed", ds, append(last(ds), "-resume")...)
			if err != nil {
				return nil, err
			}
			sum += p.wall.Seconds()
		}
		resumes = append(resumes, sum)
	}
	m["resume_s"] = metric{median(resumes), "s"}

	// meshanalyze over the completed checkpoints prints every experiment
	// table: the oracle for meshd's /experiments/{id}.
	for _, ds := range w.datasets {
		args := append([]string{"-data", paths[ds.name], "-exp", "all"}, append(last(ds), "-resume")...)
		p, err := runProc(e.tool("meshanalyze"), args...)
		if !e.t.op(err) {
			return nil, err
		}
		b.exps[ds.name], b.ids[ds.name] = splitExperiments(p.stdout)
	}
	return b, nil
}

// lineWatch is a child's stdout: it remembers the first line matching
// prefix and signals when it arrives.
type lineWatch struct {
	prefix string
	mu     sync.Mutex
	buf    []byte
	found  chan string
	sent   bool
}

func (l *lineWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sent {
		return len(p), nil
	}
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if rest, ok := strings.CutPrefix(line, l.prefix); ok {
			l.found <- rest
			l.sent = true
			break
		}
	}
	return len(p), nil
}

// meshdProc is a meshd child process.
type meshdProc struct {
	cmd  *exec.Cmd
	base string
}

// startMeshd starts meshd with every dataset registered and returns once
// it listens.
func startMeshd(e *env, w *workload, paths map[string]string) (*meshdProc, error) {
	var regs []string
	for _, ds := range w.datasets {
		regs = append(regs, ds.name+"="+paths[ds.name])
	}
	cmd := exec.Command(e.tool("meshd"), "-addr", "127.0.0.1:0", "-dir", filepath.Join(e.work, "meshd"),
		"-register", strings.Join(regs, ","))
	lw := &lineWatch{prefix: "meshd: serving on ", found: make(chan string, 1)}
	var errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = lw, &errb
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	md := &meshdProc{cmd: cmd}
	select {
	case addr := <-lw.found:
		md.base = strings.TrimSpace(addr)
		return md, nil
	case <-time.After(60 * time.Second):
		md.stop()
		return nil, fmt.Errorf("meshd did not listen within 60s: %s", tail(errb.Bytes()))
	}
}

// stop sends SIGTERM, waits for a clean exit (killing after 60 s), and
// returns meshd's peak RSS.
func (md *meshdProc) stop() (float64, error) {
	md.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- md.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		md.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("meshd did not exit within 60s of SIGTERM")
	}
	rss := 0.0
	if ru, ok := md.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("meshd shutdown: %w", err)
	}
	return rss, nil
}

// status is the slice of meshd's status document the benchmark reads.
type status struct {
	State      string `json:"state"`
	Refreshing bool   `json:"refreshing"`
	WarmMillis int64  `json:"warmMillis"`
	Error      string `json:"error"`
}

// waitReady polls a dataset's status until it is ready and not
// refreshing.
func (c *client) waitReady(name string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		code, body, _, err := c.get("/v1/datasets/"+name, "")
		if err == nil && code == http.StatusOK {
			var st status
			if err := json.Unmarshal(body, &st); err != nil {
				return fmt.Errorf("status %s: %w", name, err)
			}
			switch {
			case st.State == "failed":
				return fmt.Errorf("dataset %s failed to warm: %s", name, st.Error)
			case st.State == "ready" && !st.Refreshing:
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dataset %s not ready within %v", name, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// register (re-)registers a dataset path and waits until it is ready.
func (c *client) register(name, path string, limit time.Duration) error {
	body, _ := json.Marshal(map[string]string{"name": name, "path": path})
	resp, err := c.http.Post(c.base+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("register %s: status %d", name, resp.StatusCode)
	}
	return c.waitReady(name, limit)
}

// fetchOracles reads each dataset's report, experiment tables and
// network index once, checks them against the CLI outputs, and keeps
// what the load phases compare against.
func fetchOracles(e *env, c *client, w *workload, b *batch) ([]*oracle, error) {
	var out []*oracle
	for _, ds := range w.datasets {
		o := &oracle{
			name: ds.name, report: stripRunLines(b.reports[ds.name]),
			ids: b.ids[ds.name], exps: b.exps[ds.name],
			etags: map[string]string{}, networks: map[string][]byte{},
		}
		pre := "/v1/datasets/" + ds.name
		code, body, h, err := c.get(pre+"/report", "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET %s/report: status %d", pre, code)
		}
		if err == nil {
			err = o.reportOK(body)
		}
		if !e.t.op(err) {
			return nil, err
		}
		o.etags[pre+"/report"] = h.Get("ETag")

		code, body, _, err = c.get(pre+"/experiments", "")
		var list []struct{ ID string }
		if err == nil {
			err = json.Unmarshal(body, &list)
		}
		if err == nil && (code != http.StatusOK || len(list) != len(o.ids)) {
			err = fmt.Errorf("GET %s/experiments: status %d, %d experiments, meshanalyze printed %d", pre, code, len(list), len(o.ids))
		}
		if !e.t.op(err) {
			return nil, err
		}
		for i, x := range list {
			p := pre + "/experiments/" + x.ID
			code, body, h, err := c.get(p, "")
			switch {
			case err != nil:
			case code != http.StatusOK:
				err = fmt.Errorf("GET %s: status %d", p, code)
			case x.ID != o.ids[i] || !bytes.Equal(body, o.exps[x.ID]):
				err = fmt.Errorf("GET %s: differs from meshanalyze", p)
			}
			if !e.t.op(err) {
				return nil, err
			}
			o.etags[p] = h.Get("ETag")
		}
		for _, q := range networkQueries {
			code, body, _, err := c.get(pre+"/networks"+q, "")
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("GET %s/networks%s: status %d", pre, q, code)
			}
			if !e.t.op(err) {
				return nil, err
			}
			o.networks[q] = body
		}
		out = append(out, o)
	}
	return out, nil
}

// serveResult is what a serving run measured.
type serveResult struct {
	steady, refresh     phase
	ladder              []phase
	maxRPS              float64
	refreshWarms        []float64
	generatorFellBehind bool
	steadyLateP99       time.Duration
}

// servePhases runs the steady phase, the rate ladder and saturation step
// (when ladder is set) and the refresh phase against a ready server.
// Phase lengths scale with e.seconds: 30% steady; ladder steps of 3% at
// 2, 3, 4 and 5 times the steady rate; 10% saturated; and a refresh phase
// of at least 60% and at least w.minRefreshes re-registrations.
func servePhases(e *env, c *client, w *workload, paths map[string]string, r *serveResult, ladder bool) error {
	sec := time.Duration(e.seconds * float64(time.Second))
	r.steady = c.openLoop(w.rate, sec*3/10, nil, 0)
	r.steadyLateP99 = pct(r.steady.lateness(), 0.99)
	// The generator fell behind if it could not send on schedule: its
	// achieved rate trails the offered one, or sends ran late by more
	// than a typical request takes.
	r.generatorFellBehind = r.steady.achieved() < 0.95*w.rate || r.steadyLateP99 > 10*time.Millisecond

	if ladder {
		for i, k := range []float64{2, 3, 4, 5} {
			r.ladder = append(r.ladder, c.openLoop(k*w.rate, sec*3/100, nil, uint64(i+1)<<40))
		}
		r.maxRPS = c.saturate(sec/10, 5<<40)
	}

	stop := make(chan struct{})
	var refreshErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		start := time.Now()
		for len(r.refreshWarms) < w.minRefreshes || time.Since(start) < sec*6/10 {
			t := time.Now()
			if err := c.register(w.refresh, paths[w.refresh], 120*time.Second); !e.t.op(err) {
				refreshErr = err
				return
			}
			r.refreshWarms = append(r.refreshWarms, time.Since(t).Seconds())
		}
	}()
	r.refresh = c.openLoop(w.refreshRate, 0, stop, 6<<40)
	wg.Wait()
	return refreshErr
}

// runJourney is the untraced run: set-up, the reporting CLIs, then meshd
// under query load and refresh. It returns every end-to-end metric.
func runJourney(e *env, w *workload) (map[string]metric, error) {
	m := make(map[string]metric)
	t0 := time.Now()
	paths, setup, err := setupDatasets(e, w)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = metric{setup, "s"}
	t1 := time.Now()
	b, err := runBatch(e, w, paths, m)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()

	// Cold starts: all but the last are stopped once warm.
	var warms []float64
	var md *meshdProc
	for i := 0; i < w.warms; i++ {
		start := time.Now()
		md, err = startMeshd(e, w, paths)
		if !e.t.op(err) {
			return nil, err
		}
		c := newClient(md.base, nil, w.mixSeed, e.t)
		err = func() error {
			for _, ds := range w.datasets {
				if err := c.waitReady(ds.name, 120*time.Second); !e.t.op(err) {
					return err
				}
			}
			return nil
		}()
		warms = append(warms, time.Since(start).Seconds())
		c.close()
		if err != nil || i < w.warms-1 {
			_, stopErr := md.stop()
			e.t.op(stopErr)
		}
		if err != nil {
			return nil, err
		}
	}
	c := newClient(md.base, nil, w.mixSeed, e.t)
	defer c.close()
	var r serveResult
	err = func() error {
		if c.oracles, err = fetchOracles(e, c, w, b); err != nil {
			return err
		}
		return servePhases(e, c, w, paths, &r, true)
	}()
	rss, stopErr := md.stop()
	e.t.op(stopErr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# phases: set-up %.1fs, CLIs %.1fs, serve %.1fs\n",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	lat, rlat := r.steady.latencies(), r.refresh.latencies()
	m["warm_s"] = metric{median(warms), "s"}
	m["query_p50_ms"] = metric{ms(r.steady.windowPct(0.50, 5)), "ms"}
	m["query_p90_ms"] = metric{ms(r.steady.windowPct(0.90, 5)), "ms"}
	m["refresh_p50_ms"] = metric{ms(r.refresh.windowPct(0.50, 5)), "ms"}
	m["refresh_p90_ms"] = metric{ms(r.refresh.windowPct(0.90, 5)), "ms"}
	m["max_rps"] = metric{r.maxRPS, "1/s"}
	m["refresh_warm_s"] = metric{median(r.refreshWarms), "s"}
	m["meshd_rss_mb"] = metric{rss, "MB"}

	// Printed for reading: p99 spreads too widely across identical runs
	// on a shared 2-core host to bound (see README.md).
	fmt.Printf("# steady: %d requests at %.0f/s offered, %.0f/s achieved; p99 %.3f ms; late p99 %.3f ms\n",
		len(lat), w.rate, r.steady.achieved(), ms(pct(lat, 0.99)), ms(r.steadyLateP99))
	for _, p := range r.ladder {
		fmt.Printf("# ladder: %.0f/s offered, %.0f/s achieved, p90 %.3f ms, %d failed\n",
			p.rate, p.achieved(), ms(pct(p.latencies(), 0.90)), p.failures())
	}
	fmt.Printf("# refresh: %d requests at %.0f/s, %d re-registrations, p99 %.3f ms\n",
		len(rlat), w.refreshRate, len(r.refreshWarms), ms(pct(rlat, 0.99)))
	if r.generatorFellBehind {
		fmt.Println("# WARNING: the load generator fell behind its schedule; serving latencies of this run are suspect")
		fmt.Fprintln(os.Stderr, "perfbench: the load generator fell behind its schedule")
	}
	return m, nil
}
