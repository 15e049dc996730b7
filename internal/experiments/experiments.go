// Package experiments maps every table and figure of the thesis's
// evaluation to a runner that regenerates it from a synthetic fleet
// dataset. Each runner returns a Result: a titled table of rows plus
// headline notes, which cmd/meshreport renders into the EXPERIMENTS.md
// report (a generated artifact, not checked in) and the root bench
// harness exercises.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/hidden"
	"meshlab/internal/mobility"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier ("fig4.2", "tab4.1", "sec6.3").
	ID string
	// Title describes the paper artifact.
	Title string
	// Header and Rows form the regenerated table.
	Header []string
	Rows   [][]string
	// Notes carries headline scalars and shape checks in prose.
	Notes []string
}

// Format renders the result as aligned plain text. Rows may carry more
// cells than the header; the extra cells render unpadded.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// shared is the fleet-wide derived state an experiment can consume
// without walking networks: the flattened §4 samples, the client
// datasets, and the §7 mobility analysis. Both Context (materialized
// fleet) and StreamContext (single-pass walk) implement it, which is what
// lets one finalize body serve both execution modes byte-identically.
type shared interface {
	SamplesBG() ([]snr.Sample, error)
	SamplesN() ([]snr.Sample, error)
	analysis() *mobility.Analysis
	clientData() []*dataset.ClientData
}

// accumulator is the streaming decomposition of one experiment: observe
// is called once per network in fleet order (with per-network derived
// data available through the NetView), then finalize renders the Result
// from the accumulated state plus the shared fleet-wide state. The
// in-memory Context and the streaming StreamContext both execute
// experiments through this interface, so their tables agree byte for
// byte by construction.
//
// observe and finalize are never called concurrently on one accumulator,
// but an accumulator that also implements preparer must keep prepare free
// of accumulator state: prepare runs on pipeline workers across several
// in-flight networks at once.
type accumulator interface {
	observe(nv *NetView) error
	finalize(sc shared) (*Result, error)
}

// preparer is implemented by accumulators whose per-network work is
// expensive (routing solutions, triple censuses). prepare is invoked on a
// pipeline worker before the ordered observe call and should touch the
// NetView's derived data so the heavy computation happens off the
// serial path; it must not mutate the accumulator.
type preparer interface {
	prepare(nv *NetView) error
}

// sampleObserver is implemented by the §4 accumulators, which consume the
// flattened samples as per-network groups (exactly the unit the wire
// format's flat-sample section stores) instead of one materialized slice.
// A Context feeds the groups by splitting its materialized samples, a
// StreamContext feeds them straight off the walk or the file section —
// the accumulator code is identical, so the two modes agree byte for
// byte while the streaming mode's peak memory is the accumulator's
// count/histogram tables, not the 90%-of-derived-data sample set.
//
// Groups arrive in fleet order within each band; each call carries all
// samples of one network. Band interleaving differs between sources (a
// file section stores bands contiguously, a walk interleaves them) —
// accumulators must keep per-band state independent, which every §4
// table does naturally.
type sampleObserver interface {
	observeSampleGroup(band string, samples []snr.Sample) error
}

// bandFiltered is optionally implemented by sample accumulators that
// consume a single band, so a materialized Context run does not flatten
// a band the experiment would discard (streaming runs flatten per
// network regardless — some accumulator always wants each band).
type bandFiltered interface {
	sampleBand() string
}

// sampleAcc is the embeddable base of §4 accumulators: the network walk
// is skipped entirely (state accrues through observeSampleGroup).
type sampleAcc struct{}

func (sampleAcc) observe(*NetView) error { return nil }

// sharedOnly adapts an experiment that consumes no per-network data —
// §4 sample tables, §7 client mobility, ablations over their own fleets —
// to the accumulator interface. The walk skips these entirely.
type sharedOnly struct {
	run func(shared) (*Result, error)
}

func (sharedOnly) observe(*NetView) error                { return nil }
func (s sharedOnly) finalize(sc shared) (*Result, error) { return s.run(sc) }

// runner executes one experiment: a fresh accumulator per run.
type runner struct {
	id     string
	title  string
	newAcc func() accumulator
	// sampleOnly marks experiments that need nothing beyond the §4
	// samples, the population meshanalyze's sample-streaming mode can run.
	sampleOnly bool
}

var (
	registry []runner
	// byID indexes the registry for O(1) lookup in Run. It is built
	// incrementally by register, which only runs from package init.
	byID = make(map[string]int)
)

func register(id, title string, newAcc func() accumulator) {
	byID[id] = len(registry)
	registry = append(registry, runner{id: id, title: title, newAcc: newAcc})
}

// registerShared wires an experiment that only consumes shared fleet-wide
// state (no per-network walk).
func registerShared(id, title string, run func(shared) (*Result, error)) {
	register(id, title, func() accumulator { return sharedOnly{run: run} })
}

// registerSamples wires a §4 accumulator: an experiment whose only input
// is the flattened samples, consumed as per-network groups
// (sampleObserver), and therefore runnable by the chunked
// sample-streaming mode at table-sized memory.
func registerSamples(id, title string, newAcc func() accumulator) {
	register(id, title, newAcc)
	registry[len(registry)-1].sampleOnly = true
}

// SampleOnly reports whether the experiment consumes only the flattened
// §4 samples, i.e. whether it can run from a dataset file's sample
// section without any fleet (see meshanalyze's -sec4 mode).
func SampleOnly(id string) bool {
	i, ok := byID[id]
	return ok && registry[i].sampleOnly
}

// SampleIDs returns the sample-only experiment identifiers in paper order.
func SampleIDs() []string {
	var out []string
	for _, id := range IDs() {
		if SampleOnly(id) {
			out = append(out, id)
		}
	}
	return out
}

// paperOrder ranks experiment IDs in the order the thesis presents them,
// with ablations last. Registration order depends on file names, so the
// public ordering is made explicit here.
var paperOrder = []string{
	"fig3.1",
	"fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "tab4.1",
	"fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5",
	"fig6.1", "fig6.2", "sec6.3",
	"fig7.1", "fig7.2", "fig7.3", "fig7.4", "fig7.5",
	"abl4.off", "abl4.burst", "abl5.sym", "abl6.t",
	"ext4.topk", "ext5.ett", "ext6.mac",
}

// rankOf maps each known ID to its paper-order position, replacing the
// seed's linear scan per comparison.
var rankOf = func() map[string]int {
	m := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		m[id] = i
	}
	return m
}()

func rank(id string) int {
	if r, ok := rankOf[id]; ok {
		return r
	}
	return len(paperOrder) // unknown IDs sort after the known set
}

// IDs returns all experiment identifiers in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	sort.SliceStable(out, func(a, b int) bool { return rank(out[a]) < rank(out[b]) })
	return out
}

// memo is a per-key memoization cell: the first caller computes, every
// later (or concurrent) caller blocks on the sync.Once and shares the
// result. Unlike a single context-wide mutex, independent keys never
// serialize on each other.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memo[T]) get(f func() (T, error)) (T, error) {
	m.once.Do(func() { m.val, m.err = f() })
	return m.val, m.err
}

// memoCell returns the memo stored in m under key, creating it on first use.
func memoCell[T any](m *sync.Map, key any) *memo[T] {
	if v, ok := m.Load(key); ok {
		return v.(*memo[T])
	}
	v, _ := m.LoadOrStore(key, new(memo[T]))
	return v.(*memo[T])
}

// Context holds a fleet and memoized derived data shared across
// experiments, so running the full suite does not recompute the expensive
// routing solutions per figure. Memoization is sharded per key through
// sync.Once cells, so concurrent experiments block each other only when
// they need the same derived value.
type Context struct {
	Fleet *dataset.Fleet

	// workers caps the context's internal fan-out (the §6 census scan);
	// 0 means GOMAXPROCS. RunAllParallel records its pool size here so
	// one -workers knob bounds both experiment scheduling and the
	// per-network scans experiments launch.
	workers atomic.Int32

	samplesBG memo[[]snr.Sample]
	samplesN  memo[[]snr.Sample]
	mob       memo[*mobility.Analysis]
	matrices  sync.Map // *dataset.NetworkData → *memo[map[int]routing.Matrix]
	improved  sync.Map // *dataset.NetworkData → *memo[map[impKey][]routing.PairResult]
	hiddens   sync.Map // float64 threshold → *memo[map[*dataset.NetworkData]*hidden.NetworkResult]
}

// impKey identifies one (rate, ETX variant) routing comparison of a
// network.
type impKey struct {
	rate    int
	variant routing.Variant
}

// NewContext wraps a fleet for experiment runs.
func NewContext(f *dataset.Fleet) *Context {
	return &Context{Fleet: f}
}

// Run executes the experiment with the given ID: a fresh accumulator
// observes every network of the fleet in order (skipped entirely for
// shared-only experiments), then finalizes against the context's shared
// state. Derived per-network data is memoized on the context, so repeated
// or concurrent runs never recompute a routing solution or census.
func (c *Context) Run(id string) (*Result, error) {
	i, ok := byID[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	r := registry[i]
	acc := r.newAcc()
	if so, ok := acc.(sampleObserver); ok {
		// §4 accumulators consume the materialized (or primed) samples as
		// per-network groups — the same sequence a streaming walk feeds.
		if err := c.feedSampleGroups(so); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
	} else if _, pure := acc.(sharedOnly); !pure {
		for _, nd := range c.Fleet.Networks {
			if err := acc.observe(&NetView{nd: nd, d: c}); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", id, err)
			}
		}
	}
	res, err := acc.finalize(c)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = r.id
	res.Title = r.title
	return res, nil
}

// RunAll executes every experiment in paper order.
func (c *Context) RunAll() ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := c.Run(id)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RunAllParallel executes every experiment across a bounded worker pool
// (workers ≤ 0 means GOMAXPROCS) and returns the results in the same
// paper order as RunAll. Every runner is deterministic and the context's
// memoization is keyed by what is computed — not by who computes it first —
// so the output tables are byte-identical to a serial run.
func (c *Context) RunAllParallel(workers int) ([]*Result, error) {
	ids := IDs()
	if workers <= 0 {
		workers = conc.Budget()
	}
	c.workers.Store(int32(workers))
	results := make([]*Result, len(ids))
	err := forEachParallel(len(ids), workers, func(i int) error {
		r, err := c.Run(ids[i])
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// workerBound returns the context's internal fan-out cap; without an
// explicit RunAllParallel pool size it follows the process worker budget.
func (c *Context) workerBound() int {
	if w := int(c.workers.Load()); w > 0 {
		return w
	}
	return conc.Budget()
}

// forEachParallel runs fn over 0..n-1 across a bounded worker pool
// (workers ≤ 0 means the process worker budget; ≤ 1 runs serially in
// index order) and returns the error of the lowest index that failed, so
// the reported failure does not depend on worker scheduling.
func forEachParallel(n, workers int, fn func(int) error) error {
	return conc.ForEachN(n, workers, fn)
}

// feedSampleGroups replays the context's per-band samples through a §4
// accumulator as per-network groups, skipping bands a single-band
// accumulator declares it discards (so fig4.1 never flattens the
// 802.11n samples).
func (c *Context) feedSampleGroups(so sampleObserver) error {
	only := ""
	if bf, ok := so.(bandFiltered); ok {
		only = bf.sampleBand()
	}
	for _, band := range []string{"bg", "n"} {
		if only != "" && band != only {
			continue
		}
		var samples []snr.Sample
		var err error
		if band == "bg" {
			samples, err = c.SamplesBG()
		} else {
			samples, err = c.SamplesN()
		}
		if err != nil {
			return err
		}
		if err := snr.ForEachSampleGroup(samples, func(group []snr.Sample) error {
			return so.observeSampleGroup(band, group)
		}); err != nil {
			return err
		}
	}
	return nil
}

// PrimeSamples seeds a band's flattened-sample memo with precomputed
// samples — typically a binary dataset file's flat-sample section (see
// internal/wire) — so the first §4 experiment skips snr.Flatten entirely.
// It must be called before any experiment touches the band and the
// samples must equal what snr.Flatten would produce for the fleet's
// networks of that band; a later call (or one racing a running
// experiment) is a no-op, the first computation wins. Unknown band names
// are ignored.
func (c *Context) PrimeSamples(band string, samples []snr.Sample) {
	switch band {
	case "bg":
		c.samplesBG.once.Do(func() { c.samplesBG.val = samples })
	case "n":
		c.samplesN.once.Do(func() { c.samplesN.val = samples })
	}
}

// SamplesBG returns the flattened 802.11b/g probe samples, memoized.
func (c *Context) SamplesBG() ([]snr.Sample, error) {
	return c.samplesBG.get(func() ([]snr.Sample, error) {
		return snr.Flatten(c.Fleet.ByBand("bg"))
	})
}

// SamplesN returns the flattened 802.11n probe samples, memoized.
func (c *Context) SamplesN() ([]snr.Sample, error) {
	return c.samplesN.get(func() ([]snr.Sample, error) {
		return snr.Flatten(c.Fleet.ByBand("n"))
	})
}

// Matrices returns a network's per-rate mean success matrices, memoized.
func (c *Context) Matrices(nd *dataset.NetworkData) (map[int]routing.Matrix, error) {
	return memoCell[map[int]routing.Matrix](&c.matrices, nd).get(func() (map[int]routing.Matrix, error) {
		return routing.SuccessMatrices(nd)
	})
}

// Improvements returns a network's opportunistic-routing comparison at one
// rate and variant. The first request for a network computes every
// (rate, variant) pair of that network in one pass — the §5 figures sweep
// all of them anyway — so each matrix's all-pairs solution is built
// exactly once per context, no matter how many experiments ask.
func (c *Context) Improvements(nd *dataset.NetworkData, rate int, v routing.Variant) ([]routing.PairResult, error) {
	all, err := memoCell[map[impKey][]routing.PairResult](&c.improved, nd).get(func() (map[impKey][]routing.PairResult, error) {
		ms, err := c.Matrices(nd)
		if err != nil {
			return nil, err
		}
		return improvementSweep(ms), nil
	})
	if err != nil {
		return nil, err
	}
	return all[impKey{rate: rate, variant: v}], nil
}

// analysis runs the §7 mobility aggregation once per context.
func (c *Context) analysis() *mobility.Analysis {
	a, _ := c.mob.get(func() (*mobility.Analysis, error) {
		return mobility.Analyze(c.clientData(), mobility.DefaultGap), nil
	})
	return a
}

// clientData returns the fleet's client datasets (the shared interface).
func (c *Context) clientData() []*dataset.ClientData { return c.Fleet.Clients }

// derivedSource methods: the Context backs NetViews with its fleet-wide
// memoization, so every observer walking the fleet shares one routing
// solution and one census per network.

func (c *Context) netMatrices(nd *dataset.NetworkData) (map[int]routing.Matrix, error) {
	return c.Matrices(nd)
}

func (c *Context) netImprovements(nd *dataset.NetworkData, rate int, v routing.Variant) ([]routing.PairResult, error) {
	return c.Improvements(nd, rate, v)
}

// netHidden returns one network's §6 census at a threshold. The first
// request for a threshold scans every b/g network of the fleet across the
// context's worker bound — the censuses are per-network independent — so
// a single-figure run gets the same multicore scan the full suite does;
// every later request at that threshold is a map lookup.
func (c *Context) netHidden(nd *dataset.NetworkData, threshold float64) (*hidden.NetworkResult, error) {
	all, err := memoCell[map[*dataset.NetworkData]*hidden.NetworkResult](&c.hiddens, threshold).get(
		func() (map[*dataset.NetworkData]*hidden.NetworkResult, error) {
			nets := c.Fleet.ByBand("bg")
			out := make([]*hidden.NetworkResult, len(nets))
			err := forEachParallel(len(nets), c.workerBound(), func(i int) error {
				ms, err := c.Matrices(nets[i])
				if err != nil {
					return err
				}
				out[i], err = hidden.Census(nets[i], ms, threshold)
				return err
			})
			if err != nil {
				return nil, err
			}
			m := make(map[*dataset.NetworkData]*hidden.NetworkResult, len(nets))
			for i, n := range nets {
				m[n] = out[i]
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}
	if nr, ok := all[nd]; ok {
		return nr, nil
	}
	// Networks outside the scanned band (the figures only census b/g) are
	// analyzed directly, still through the matrix memo.
	ms, err := c.Matrices(nd)
	if err != nil {
		return nil, err
	}
	return hidden.Census(nd, ms, threshold)
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// sortedKeys returns sorted integer map keys.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
