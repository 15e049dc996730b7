package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"meshlab"
	"meshlab/internal/checkpoint"
	"meshlab/internal/dataset"
	"meshlab/internal/experiments"
	"meshlab/internal/hidden"
	"meshlab/internal/meshd"
	"meshlab/internal/report"
	"meshlab/internal/routing"
	"meshlab/internal/wire"
)

// pipeStats is one in-process streamed run of the suite, timed at each
// call the benchmark makes into a layer.
type pipeStats struct {
	wall, decode, sampleWait, observe, feed, finalize, render time.Duration
	maxInFlight                                               int
	results                                                   []*meshlab.Result
	report                                                    []byte
}

// drivePipeline replays meshlab.StreamFleet's calls from the benchmark's
// own code so each layer's share can be timed: the wire walk, prepare
// backpressure in Observe, the §4 sample-group feed, Finalize, and the
// report render. Its spans carry req, the dataset's request id. With a
// nil tracer it records no spans.
func drivePipeline(tr *tracer, parent, req int64, path string) (*pipeStats, error) {
	ps := &pipeStats{}
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := tr.begin("wire.header", parent, req)
	rd, err := wire.NewReader(bufio.NewReaderSize(f, 1<<20))
	h.end()
	if err != nil {
		return nil, err
	}
	sc := experiments.NewStreamContext(0)
	sum := &meshlab.StreamSummary{Meta: rd.Meta(), FlatSamples: rd.HasFlatSamples()}
	if sum.FlatSamples {
		sc.DeferSamples()
	}
	walk := tr.begin("wire.walk", parent, req)
	err = rd.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
		sum.Networks++
		switch nd.Info.Band {
		case "bg":
			sum.NetworksBG++
		case "n":
			sum.NetworksN++
		}
		for _, l := range nd.Links {
			sum.ProbeSets += len(l.Sets)
		}
		o := tr.begin("experiments.observe", walk.id, req)
		err := sc.Observe(nd)
		ps.observe += o.end()
		return err
	})
	ps.decode = walk.end() - ps.observe
	if err == nil {
		h := tr.begin("wire.clients", parent, req)
		var cds []*dataset.ClientData
		cds, err = rd.Clients()
		sc.SetClients(cds)
		h.end()
	}
	if err == nil && sum.FlatSamples {
		sg := tr.begin("wire.sample_groups", parent, req)
		err = rd.SampleGroups(0, func(g *wire.SampleGroup) error {
			fd := tr.begin("experiments.sample_feed", sg.id, req)
			err := sc.ObserveSampleGroup(g.Band, g.Samples)
			ps.feed += fd.end()
			return err
		})
		ps.sampleWait = sg.end() - ps.feed
		if err == nil {
			sc.FinishSamples()
		}
	}
	// Finalize drains the pipeline, so it runs after a failed walk too.
	h = tr.begin("experiments.finalize", parent, req)
	results, finErr := sc.Finalize()
	ps.finalize = h.end()
	_, ps.maxInFlight = sc.Stats()
	if err = errors.Join(err, finErr); err != nil {
		return nil, err
	}
	h = tr.begin("report.render", parent, req)
	ps.report = []byte(report.Markdown(report.Preamble{Label: path, Sum: sum, ExpDuration: time.Since(start)}, results))
	ps.render = h.end()
	ps.results = results
	ps.wall = time.Since(start)
	return ps, nil
}

// synthesize generates each dataset in process and encodes it with the
// flat-sample section, as meshgen -flat-samples does.
func synthesize(tr *tracer, parent int64, dir string, dss []input) (map[string]string, time.Duration, time.Duration, int64, error) {
	var gen, enc time.Duration
	var size int64
	paths := make(map[string]string)
	for _, ds := range dss {
		h := tr.begin("synth.generate", parent, 0)
		fleet, err := meshlab.GenerateFleet(ds.opts)
		gen += h.end()
		if err != nil {
			return nil, 0, 0, 0, err
		}
		p := filepath.Join(dir, ds.name+".bin")
		h = tr.begin("wire.encode", parent, 0)
		err = writeDataset(p, fleet)
		enc += h.end()
		if err != nil {
			return nil, 0, 0, 0, err
		}
		st, err := os.Stat(p)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		size += st.Size()
		paths[ds.name] = p
	}
	return paths, gen, enc, size, nil
}

func writeDataset(path string, fleet *meshlab.Fleet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := meshlab.WriteFleetBinaryWithSamples(bw, fleet); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ckptHook times the checkpoint write phases through
// shard.Options.CheckpointHook: the state snapshot runs from
// "mid-snapshot" to "post-temp-write", the fsync from there to
// "pre-rename", and "renamed" counts a completed save.
type ckptHook struct {
	mu       sync.Mutex
	last     map[string]time.Time // temp path → time of its last phase
	snapshot time.Duration
	fsync    time.Duration
	saves    int
}

func (c *ckptHook) hook(phase, path string) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch phase {
	case "mid-snapshot":
		c.last[path] = now
	case "post-temp-write":
		c.snapshot += now.Sub(c.last[path])
		c.last[path] = now
	case "pre-rename":
		c.fsync += now.Sub(c.last[path])
		delete(c.last, path)
	case "renamed":
		c.saves++
	}
	return nil
}

func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// handlerStats wraps meshd's Handler and records each response's
// status, size and time in the handler, plus a span per request under
// parent, each with its own request id.
type handlerStats struct {
	tr     *tracer
	parent atomic.Int64
	reqs   atomic.Int64

	mu    sync.Mutex
	lat   []time.Duration
	n503  int
	n304  int
	bytes int64
}

type recWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *recWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (hs *handlerStats) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &recWriter{ResponseWriter: w, code: http.StatusOK}
		h := hs.tr.begin("meshd.handler", hs.parent.Load(), hs.reqs.Add(1))
		next.ServeHTTP(rw, r)
		d := h.end()
		hs.mu.Lock()
		hs.lat = append(hs.lat, d)
		hs.bytes += rw.bytes
		switch rw.code {
		case http.StatusServiceUnavailable:
			hs.n503++
		case http.StatusNotModified:
			hs.n304++
		}
		hs.mu.Unlock()
	})
}

// runTraced is the per-layer run: the same workload driven in process,
// each call into a layer timed by a span. The pipeline runs once
// untraced and once traced; the difference is the tracing overhead.
func runTraced(e *env, w *workload, spanDir string) (map[string]metric, error) {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	secs := func(d time.Duration) float64 { return d.Seconds() }
	dir := filepath.Join(e.work, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	rt0 := readRT()
	heap := startHeapSampler(5 * time.Millisecond)
	defer heap.stop()
	root := tr.begin("traced", 0, 0)
	allocSpan := func(name string, fn func(id int64) error) error {
		a := readRT().alloc
		h := tr.begin(name, root.id, 0)
		err := fn(h.id)
		h.end()
		put("runtime.alloc_mb."+name, (readRT().alloc-a)/(1<<20), "MB")
		return err
	}

	// Set-up: synthesis and encoding.
	var paths map[string]string
	err := allocSpan("setup", func(id int64) error {
		var gen, enc time.Duration
		var size int64
		var err error
		paths, gen, enc, size, err = synthesize(tr, id, dir, w.datasets)
		put("synth.generate_s", secs(gen), "s")
		put("wire.encode_s", secs(enc), "s")
		put("wire.file_mb", float64(size)/(1<<20), "MB")
		runtime.GC()
		return err
	})
	if !e.t.op(err) {
		return nil, err
	}

	// The pipeline, untraced first: its Finalize is the first in the
	// process, so it also pays the once-per-process ablation fleets.
	first := make(map[string]time.Duration)
	plain := make(map[string]*pipeStats)
	err = allocSpan("untraced", func(int64) error {
		for _, ds := range w.datasets {
			ps, err := drivePipeline(nil, 0, 0, paths[ds.name])
			if !e.t.op(err) {
				return err
			}
			first[ds.name] = ps.finalize
			plain[ds.name] = ps
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The program's own pipeline, meshlab.StreamFleet, with its Open seam
	// counted. The replay must produce the same results byte for byte, and
	// its traced run is timed against this one, so a replay that drifts
	// from StreamFleet shows as a failed check or as overhead.
	var stream time.Duration
	rcnt := &ioCounter{}
	err = allocSpan("stream", func(id int64) error {
		for i, ds := range w.datasets {
			h := tr.begin("stream."+ds.name, id, int64(i+1))
			t0 := time.Now()
			res, _, err := meshlab.StreamFleet(paths[ds.name], meshlab.StreamOptions{Open: rcnt.open})
			stream += time.Since(t0)
			h.end()
			if !e.t.op(err) {
				return err
			}
			if !e.t.op(sameBytes("replayed pipeline "+ds.name, experimentsText(plain[ds.name].results), experimentsText(res))) {
				return errors.New("the replayed pipeline's results differ from meshlab.StreamFleet's")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	put("wire.read_mb", float64(rcnt.bytes.Load())/(1<<20), "MB")
	put("wire.read_s", float64(rcnt.nanos.Load())/1e9, "s")

	// The pipeline, traced. Its time up to the report render is compared
	// with StreamFleet's, which renders no report.
	var traced, decode, sampleWait, observe, feed, finalize, render time.Duration
	maxInFlight := 0
	piped := make(map[string]*pipeStats)
	var pipeIDs []int64
	gc0 := readRT()
	err = allocSpan("pipeline", func(id int64) error {
		for i, ds := range w.datasets {
			h := tr.begin("pipeline."+ds.name, id, int64(i+1))
			ps, err := drivePipeline(tr, h.id, int64(i+1), paths[ds.name])
			h.end()
			pipeIDs = append(pipeIDs, h.id)
			if !e.t.op(err) {
				return err
			}
			e.t.op(sameReport("traced pipeline "+ds.name, ps.report, plain[ds.name].report))
			traced += ps.wall - ps.render
			decode += ps.decode
			sampleWait += ps.sampleWait
			observe += ps.observe
			feed += ps.feed
			finalize += ps.finalize
			render += ps.render
			maxInFlight = max(maxInFlight, ps.maxInFlight)
			piped[ds.name] = ps
		}
		return nil
	})
	gc1 := readRT()
	if err != nil {
		return nil, err
	}
	d0 := w.datasets[0].name
	put("wire.decode_s", secs(decode), "s")
	put("wire.sample_wait_s", secs(sampleWait), "s")
	put("experiments.observe_wait_s", secs(observe), "s")
	put("experiments.max_in_flight", float64(maxInFlight), "count")
	put("experiments.sample_feed_s", secs(feed), "s")
	put("experiments.finalize_s", secs(finalize), "s")
	put("experiments.once_s", secs(first[d0]-piped[d0].finalize), "s")
	put("report.render_s", secs(render), "s")
	put("trace.overhead_frac", traced.Seconds()/stream.Seconds()-1, "ratio")
	if dt := gc1.totalCPU - gc0.totalCPU; dt > 0 {
		put("runtime.gc_cpu_frac", (gc1.gcCPU-gc0.gcCPU)/dt, "ratio")
	} else {
		put("runtime.gc_cpu_frac", 0, "ratio")
	}

	// Routing and the §6 census: a serial pass over the same networks.
	err = allocSpan("routing", func(id int64) error {
		var mat, imp, largest, census time.Duration
		for _, ds := range w.datasets {
			a, b, l, c, err := routingPass(tr, id, paths[ds.name])
			if !e.t.op(err) {
				return err
			}
			mat, imp, census = mat+a, imp+b, census+c
			largest = max(largest, l)
		}
		put("routing.matrices_s", secs(mat), "s")
		put("routing.improvements_s", secs(imp), "s")
		put("routing.largest_net_s", secs(largest), "s")
		put("hidden.census_s", secs(census), "s")
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Sharded, checkpointed run; checkpoint loads; resume.
	err = allocSpan("shard", func(id int64) error {
		return tracedShards(e, tr, id, w, paths, piped, put)
	})
	if err != nil {
		return nil, err
	}

	// meshd in process, its handler wrapped.
	err = allocSpan("meshd", func(id int64) error {
		return tracedMeshd(e, tr, id, w, paths, piped, put)
	})
	if err != nil {
		return nil, err
	}

	// The scenarios' datasets are the goldens' datasets.
	if w.name == "scenarios" {
		results := make(map[string][]*meshlab.Result)
		for name, ps := range piped {
			results[name] = ps.results
		}
		e.t.op(checkGoldens(e.root, results))
	}

	total := root.end()
	put("runtime.heap_peak_mb", heap.stop()/(1<<20), "MB")
	put("runtime.alloc_mb", (readRT().alloc-rt0.alloc)/(1<<20), "MB")
	put("trace.wall_s", secs(total), "s")
	// Benchmark time no span covers: gaps between the top-level spans, plus
	// each streamed pipeline's time outside its layer calls.
	unaccounted := total - tr.childCover(root.id)
	for _, id := range pipeIDs {
		unaccounted += tr.spanDur(id) - tr.childCover(id)
	}
	put("trace.unaccounted_s", secs(unaccounted), "s")
	put("trace.spans", float64(len(tr.spans)), "count")
	if spanDir != "" {
		p := filepath.Join(spanDir, fmt.Sprintf("%s-%d.json", w.name, os.Getpid()))
		if err := tr.write(p); err != nil {
			return nil, err
		}
		fmt.Printf("# spans: %s\n", p)
	}
	return m, nil
}

// censusThresholds are the hearing thresholds the stream's prepare step
// runs the §6 census at on every b/g network: 0.10 for Figures 6.1–6.2
// and §6.3, and the abl6t sweep (0.05, 0.10, 0.25, 0.50) in
// internal/experiments/ch6.go. Each census is computed once per threshold.
var censusThresholds = []float64{0.05, 0.10, 0.25, 0.50}

// routingPass decodes every network again and times the routing layer
// (success matrices, then ETX1/ETX2 improvements at every rate, as the
// stream's prepare step computes them) and the §6 census at
// censusThresholds, serially.
func routingPass(tr *tracer, parent int64, path string) (mat, imp, largest, census time.Duration, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer f.Close()
	rd, err := wire.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	err = rd.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
		h := tr.begin("routing.matrices", parent, 0)
		ms, err := routing.SuccessMatrices(nd)
		dm := h.end()
		if err != nil {
			return err
		}
		h = tr.begin("routing.improvements", parent, 0)
		for _, v := range []routing.Variant{routing.ETX1, routing.ETX2} {
			for _, m := range ms {
				routing.Improvements(m, v)
			}
		}
		di := h.end()
		mat, imp = mat+dm, imp+di
		largest = max(largest, dm+di)
		if nd.Info.Band != "bg" {
			return nil
		}
		h = tr.begin("hidden.census", parent, 0)
		for _, th := range censusThresholds {
			if _, err = hidden.Census(nd, ms, th); err != nil {
				break
			}
		}
		census += h.end()
		return err
	})
	return mat, imp, largest, census, err
}

// tracedShards runs the sharded, checkpointed stream through
// meshlab.ShardedStream with the Open and CheckpointHook seams counted,
// loads every shard's checkpoint, and resumes over them. Both result
// sets must equal the streamed pipeline's.
func tracedShards(e *env, tr *tracer, parent int64, w *workload, paths map[string]string, piped map[string]*pipeStats, put func(string, float64, string)) error {
	var run, resume, load time.Duration
	attempts := 0
	var dirBytes int64
	hook := &ckptHook{last: make(map[string]time.Time)}
	cnt, rcnt := &ioCounter{}, &ioCounter{}
	for _, ds := range w.datasets {
		ck := filepath.Join(e.work, "traced", "ckpt", ds.name)
		want := experimentsText(piped[ds.name].results)
		so := meshlab.ShardOptions{
			Shards: w.shards, MaxRetries: 3, CheckpointDir: ck, CheckpointEvery: w.ckptEvery,
			Open: cnt.open, CheckpointHook: hook.hook,
		}
		h := tr.begin("shard.run", parent, 0)
		res, err := meshlab.ShardedStream(context.Background(), paths[ds.name], so)
		run += h.end()
		if !e.t.op(err) {
			return err
		}
		for _, r := range res.Manifest.Shards {
			attempts += r.Attempts
		}
		if !e.t.op(sameBytes("sharded "+ds.name, experimentsText(res.Results), want)) {
			return errors.New("sharded results differ")
		}
		dirBytes += dirSize(ck)
		for i := range res.Manifest.Shards {
			h := tr.begin("checkpoint.load", parent, 0)
			_, _, err := checkpoint.Load(ck, i)
			load += h.end()
			if !e.t.op(err) {
				return err
			}
		}
		so.Resume, so.Open, so.CheckpointHook = true, rcnt.open, nil
		h = tr.begin("shard.resume", parent, 0)
		res, err = meshlab.ShardedStream(context.Background(), paths[ds.name], so)
		resume += h.end()
		if !e.t.op(err) {
			return err
		}
		e.t.op(sameBytes("resumed "+ds.name, experimentsText(res.Results), want))
	}
	put("shard.run_s", run.Seconds(), "s")
	put("shard.attempts", float64(attempts), "count")
	put("shard.read_mb", float64(cnt.bytes.Load())/(1<<20), "MB")
	put("shard.resume_s", resume.Seconds(), "s")
	put("shard.resume_read_mb", float64(rcnt.bytes.Load())/(1<<20), "MB")
	put("checkpoint.saves", float64(hook.saves), "count")
	put("checkpoint.snapshot_s", hook.snapshot.Seconds(), "s")
	put("checkpoint.fsync_s", hook.fsync.Seconds(), "s")
	put("checkpoint.dir_mb", float64(dirBytes)/(1<<20), "MB")
	put("checkpoint.load_s", load.Seconds(), "s")
	return nil
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: differs from the streamed results at byte %d", what, firstDiff(got, want))
	}
	return nil
}

// tracedMeshd hosts meshd.New in process behind a timing wrapper of its
// Handler, warms every dataset, and runs the steady and refresh phases
// (no ladder) against it.
func tracedMeshd(e *env, tr *tracer, parent int64, w *workload, paths map[string]string, piped map[string]*pipeStats, put func(string, float64, string)) error {
	srv := meshd.New(meshd.Config{Dir: filepath.Join(e.work, "traced", "meshd")})
	defer srv.Shutdown(context.Background())
	h := tr.begin("meshd.warm", parent, 0)
	for _, ds := range w.datasets {
		if err := srv.RegisterPath(ds.name, paths[ds.name]); !e.t.op(err) {
			return err
		}
	}
	var warm int64
	for _, ds := range w.datasets {
		for {
			st, err := srv.Status(ds.name)
			if !e.t.op(err) {
				return err
			}
			if st.State == meshd.StateFailed {
				err := fmt.Errorf("meshd warm %s: %s", ds.name, st.Error)
				e.t.op(err)
				return err
			}
			if st.State == meshd.StateReady {
				warm += st.WarmMillis
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	h.end()
	put("meshd.warm_ms", float64(warm), "ms")

	hs := &handlerStats{tr: tr}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hsrv := &http.Server{Handler: hs.wrap(srv.Handler())}
	served := make(chan error, 1)
	go func() { served <- hsrv.Serve(ln) }()
	defer func() {
		hsrv.Shutdown(context.Background())
		<-served
	}()

	b := &batch{reports: map[string][]byte{}, exps: map[string]map[string][]byte{}, ids: map[string][]string{}}
	for _, ds := range w.datasets {
		ps := piped[ds.name]
		b.reports[ds.name], b.exps[ds.name] = ps.report, map[string][]byte{}
		for _, r := range ps.results {
			b.ids[ds.name] = append(b.ids[ds.name], r.ID)
			b.exps[ds.name][r.ID] = []byte(r.Format() + "\n")
		}
	}
	c := newClient("http://"+ln.Addr().String(), nil, w.mixSeed, e.t)
	defer c.close()
	if c.oracles, err = fetchOracles(e, c, w, b); err != nil {
		return err
	}
	var r serveResult
	h = tr.begin("meshd.load", parent, 0)
	hs.parent.Store(h.id)
	err = servePhases(e, c, w, paths, &r, false)
	h.end()
	if err != nil {
		return err
	}
	capacity, high := srv.PoolStats()
	hs.mu.Lock()
	defer hs.mu.Unlock()
	put("meshd.handler_p50_ms", ms(pct(hs.lat, 0.50)), "ms")
	put("meshd.handler_p90_ms", ms(pct(hs.lat, 0.90)), "ms")
	put("meshd.resp_503", float64(hs.n503), "count")
	put("meshd.not_modified_frac", float64(hs.n304)/float64(max(len(hs.lat), 1)), "ratio")
	put("meshd.resp_kb", float64(hs.bytes)/float64(max(len(hs.lat), 1))/1024, "KB")
	put("conc.pool_capacity", float64(capacity), "count")
	put("conc.pool_high", float64(high), "count")
	put("loadgen.late_p99_ms", ms(pct(r.steady.lateness(), 0.99)), "ms")
	put("loadgen.achieved_rps", r.steady.achieved(), "1/s")
	put("loadgen.query_p99_ms", ms(pct(r.steady.latencies(), 0.99)), "ms")
	return nil
}
