package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Query kinds of the serving mix.
const (
	qReport = iota
	qExperiment
	qNetworks
	qStatus
)

// networkQueries are the filtered network-index requests of the mix:
// the selectors the repository's own meshd smoke check (ci.yml) and its
// README serving example send.
var networkQueries = []string{"?selector=band=bg", "?selector=band=bg,minAPs=10"}

// oracle holds one registered dataset's expected response bytes: the
// CLI report (compared modulo run lines), meshanalyze's per-experiment
// texts, and the network index as first served.
type oracle struct {
	name     string
	report   []byte // stripped CLI report
	ids      []string
	exps     map[string][]byte
	etags    map[string]string // path → ETag from the oracle fetch
	networks map[string][]byte // query → body from the oracle fetch

	mu      sync.Mutex
	goodRaw [][]byte // served report renderings already found equal
}

// reportOK compares a served report with the CLI's. Renderings differ
// only in the run lines, and only per warm, so each verified rendering
// is remembered and later copies compare byte for byte.
func (o *oracle) reportOK(body []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, g := range o.goodRaw {
		if bytes.Equal(g, body) {
			return nil
		}
	}
	if err := sameReport(o.name+" served /report", body, o.report); err != nil {
		return err
	}
	o.goodRaw = append(o.goodRaw, body)
	return nil
}

// client is the load generator's view of one meshd.
type client struct {
	base    string
	http    *http.Client
	oracles []*oracle
	mixSeed uint64
	conns   int
	t       *tally
}

func newClient(base string, oracles []*oracle, seed uint64, t *tally) *client {
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{
		base: base, oracles: oracles, mixSeed: seed, conns: conns, t: t,
		http: &http.Client{Transport: tr, Timeout: 60 * time.Second},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// query is one request of the mix.
type query struct {
	o    *oracle
	kind int
	path string
	id   string // experiment ID for qExperiment, filter for qNetworks
	inm  string // If-None-Match, or empty
}

// pick returns the i-th request of the mix. The four request kinds
// (report, per-experiment table, filtered network list, status document)
// are equally likely, and so are the choices within a kind; half of the
// report and experiment requests revalidate with If-None-Match. No
// record of meshd's real traffic exists, so these shares are designed,
// not measured (see README.md).
func (c *client) pick(i uint64) query {
	r := splitmix(c.mixSeed ^ (i * 0x9e3779b97f4a7c15))
	o := c.oracles[r%uint64(len(c.oracles))]
	pre := "/v1/datasets/" + o.name
	revalidate := (r>>24)&1 == 0
	q := query{o: o}
	switch (r >> 16) % 4 {
	case qReport:
		q.kind, q.path = qReport, pre+"/report"
	case qExperiment:
		q.id = o.ids[(r>>32)%uint64(len(o.ids))]
		q.kind, q.path = qExperiment, pre+"/experiments/"+q.id
	case qNetworks:
		q.id = networkQueries[(r>>32)%uint64(len(networkQueries))]
		q.kind, q.path = qNetworks, pre+"/networks"+q.id
	default:
		q.kind, q.path = qStatus, pre
	}
	if revalidate && (q.kind == qReport || q.kind == qExperiment) {
		q.inm = o.etags[q.path]
	}
	return q
}

// get sends one GET and returns the status and body.
func (c *client) get(path, inm string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// do sends q and checks the answer against the oracle.
func (c *client) do(q query) error {
	code, body, _, err := c.get(q.path, q.inm)
	if err != nil {
		return fmt.Errorf("GET %s: %w", q.path, err)
	}
	switch {
	case code == http.StatusNotModified && q.inm != "":
		return nil
	case code != http.StatusOK:
		return fmt.Errorf("GET %s: status %d", q.path, code)
	}
	switch q.kind {
	case qReport:
		return q.o.reportOK(body)
	case qExperiment:
		if !bytes.Equal(body, q.o.exps[q.id]) {
			return fmt.Errorf("GET %s: body differs from meshanalyze at byte %d", q.path, firstDiff(body, q.o.exps[q.id]))
		}
	case qNetworks:
		if !bytes.Equal(body, q.o.networks[q.id]) {
			return fmt.Errorf("GET %s: network index changed", q.path)
		}
	case qStatus:
		var st struct{ State string }
		if err := json.Unmarshal(body, &st); err != nil || st.State != "ready" {
			return fmt.Errorf("GET %s: status document %q", q.path, body)
		}
	}
	return nil
}

// sample is one open-loop request: how late it was sent and how long it
// took, both measured from when it was due.
type sample struct {
	late, lat time.Duration
	end       time.Duration // completion, since the phase start
	failed    bool
}

// phase is an open-loop run's outcome.
type phase struct {
	rate    float64
	samples []sample
	span    time.Duration // first due to last completion
}

func (p phase) latencies() []time.Duration {
	out := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.lat
	}
	return out
}

func (p phase) lateness() []time.Duration {
	out := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.late
	}
	return out
}

func (p phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// achieved is the completed-request rate over the phase.
func (p phase) achieved() float64 {
	if p.span <= 0 {
		return 0
	}
	return float64(len(p.samples)) / p.span.Seconds()
}

// openLoop sends the mix on a fixed schedule, request i due at i/rate
// after the start, over at most c.conns connections, until dur has
// passed (dur > 0) or stop closes. Requests are sent regardless of how
// earlier ones fare, so a stall delays every later request and shows in
// their latency, which runs from the due time. first offsets the mix so
// successive phases send different requests.
func (c *client) openLoop(rate float64, dur time.Duration, stop <-chan struct{}, first uint64) phase {
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		all     []sample
		lastEnd time.Duration
	)
	done := make(chan struct{})
	if stop != nil {
		go func() {
			select {
			case <-stop:
				stopped.Store(true)
			case <-done:
			}
		}()
	}
	t0 := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var end time.Duration
			for {
				i := next.Add(1) - 1
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if (dur > 0 && due >= dur) || stopped.Load() {
					break
				}
				if d := due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				start := time.Since(t0)
				err := c.do(c.pick(first + uint64(i)))
				end = time.Since(t0)
				c.t.op(err)
				local = append(local, sample{late: start - due, lat: end - due, end: end, failed: err != nil})
			}
			mu.Lock()
			all = append(all, local...)
			lastEnd = max(lastEnd, end)
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(done)
	return phase{rate: rate, samples: all, span: lastEnd}
}

// saturate keeps every connection busy for dur, with no schedule to
// fall behind, and returns the median completed-request rate over four
// equal windows: the server's throughput at c.conns connections, robust
// to one stalled window.
func (c *client) saturate(dur time.Duration, first uint64) float64 {
	stop := make(chan struct{})
	t := time.AfterFunc(dur, func() { close(stop) })
	defer t.Stop()
	p := c.openLoop(1e9, 0, stop, first)
	var n [4]float64
	for _, s := range p.samples {
		if k := int(s.end * 4 / dur); k < 4 {
			n[k]++
		}
	}
	rates := make([]float64, 4)
	for k := range n {
		rates[k] = n[k] / (dur.Seconds() / 4)
	}
	return median(rates)
}

// windowPct splits p by due time into n equal windows and returns the
// median over the windows of each window's q-quantile latency, so one
// window disturbed by a transient stall of the host does not move the
// result.
func (p phase) windowPct(q float64, n int) time.Duration {
	var last time.Duration
	for _, s := range p.samples {
		last = max(last, s.end-s.lat)
	}
	win := make([][]time.Duration, n)
	for _, s := range p.samples {
		k := min(int(int64(s.end-s.lat)*int64(n)/int64(last+1)), n-1)
		win[k] = append(win[k], s.lat)
	}
	var qs []float64
	for _, w := range win {
		if len(w) > 0 {
			qs = append(qs, float64(pct(w, q)))
		}
	}
	return time.Duration(median(qs))
}

// pct returns the q-quantile of ds (nearest rank); 0 for no samples.
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
