package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, its interval relative
// to the tracer's start, the span that caused it (0: a root), and the
// request it served (0: not request-scoped).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same benchmark code runs traced and untraced.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span; end closes it and returns its duration.
type handle struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

func (t *tracer) begin(name string, parent, req int64) handle {
	h := handle{tr: t, parent: parent, req: req, name: name, start: time.Now()}
	if t != nil {
		h.id = t.nextID.Add(1)
	}
	return h
}

func (h handle) end() time.Duration {
	now := time.Now()
	d := now.Sub(h.start)
	if t := h.tr; t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{
			ID: h.id, Parent: h.parent, Req: h.req, Name: h.name,
			Start: int64(h.start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
		})
		t.mu.Unlock()
	}
	return d
}

// childCover returns how much of parent's interval its direct children
// cover (children on one goroutine do not overlap).
func (t *tracer) childCover(parent int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Parent == parent {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

// spanDur returns the duration of the span with the given id.
func (t *tracer) spanDur(id int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.ID == id {
			return time.Duration(s.End - s.Start)
		}
	}
	return 0
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rt reads the process-wide runtime counters the per-layer report
// carries: cumulative allocation, GC and total CPU time, and live heap.
type rt struct{ alloc, gcCPU, totalCPU, heap float64 }

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRT() rt {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rt{alloc: val(0), gcCPU: val(1), totalCPU: val(2), heap: val(3)}
}

// heapSampler records the peak live heap between start and stop.
type heapSampler struct {
	once  sync.Once
	stopc chan struct{}
	done  chan struct{}
	peak  float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if v := readRT().heap; v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop joins the sampler and returns the peak heap in bytes. It may be
// called more than once.
func (h *heapSampler) stop() float64 {
	h.once.Do(func() { close(h.stopc) })
	<-h.done
	return h.peak
}

// ioCounter counts bytes read and time spent in Read through the
// dataset-open seams (StreamOptions.Open, shard.Options.Open).
type ioCounter struct {
	bytes atomic.Int64
	nanos atomic.Int64
}

func (c *ioCounter) open(path string) (io.ReadSeekCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &countedFile{f: f, c: c}, nil
}

type countedFile struct {
	f *os.File
	c *ioCounter
}

func (cf *countedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := cf.f.Read(p)
	cf.c.nanos.Add(int64(time.Since(start)))
	cf.c.bytes.Add(int64(n))
	return n, err
}

func (cf *countedFile) Seek(off int64, whence int) (int64, error) { return cf.f.Seek(off, whence) }
func (cf *countedFile) Close() error                              { return cf.f.Close() }
