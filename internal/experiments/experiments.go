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

	"meshlab/internal/binio"
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

// accumulator is the streaming decomposition of one experiment: observe
// is called once per network in fleet order (with per-network derived
// data available through the NetView), then finalize renders the Result
// from the accumulated state plus the run's fleet-wide state (client
// data and the §7 mobility analysis). snapshot serializes the partial
// state into the sticky-error writer, and restore folds such bytes into
// the receiver's own state (see snapshot.go): that one pair drives both
// checkpoint resume and the shard merge.
//
// observe and finalize are never called concurrently on one accumulator,
// but an accumulator that also implements preparer must keep prepare free
// of accumulator state: prepare runs on pipeline workers across several
// in-flight networks at once.
type accumulator interface {
	observe(nv *NetView) error
	finalize(s *StreamContext) (*Result, error)
	snapshot(w *binio.Writer)
	restore(r *binio.Reader) error
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
// format's flat-sample section stores) instead of one materialized slice:
// a StreamContext feeds them straight off the walk or the file section,
// so peak memory is the accumulators' count/histogram tables, not the
// 90%-of-derived-data sample set.
//
// Groups arrive in fleet order within each band; each call carries all
// samples of one network. Band interleaving differs between sources (a
// file section stores bands contiguously, a walk interleaves them) —
// accumulators must keep per-band state independent, which every §4
// table does naturally.
type sampleObserver interface {
	observeSampleGroup(band string, samples []snr.Sample) error
}

// sampleAcc is the embeddable base of §4 accumulators: the network walk
// is skipped entirely (state accrues through observeSampleGroup).
type sampleAcc struct{}

func (sampleAcc) observe(*NetView) error { return nil }

// sharedOnly adapts an experiment that consumes no per-network data —
// §4 sample tables, §7 client mobility, ablations over their own fleets —
// to the accumulator interface. The walk skips these entirely.
type sharedOnly struct {
	run func(*StreamContext) (*Result, error)
}

func (sharedOnly) observe(*NetView) error                       { return nil }
func (o sharedOnly) finalize(s *StreamContext) (*Result, error) { return o.run(s) }

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
	// byID indexes the registry for O(1) lookup by ID. It is built
	// incrementally by register, which only runs from package init.
	byID = make(map[string]int)
)

func register(id, title string, newAcc func() accumulator) {
	byID[id] = len(registry)
	registry = append(registry, runner{id: id, title: title, newAcc: newAcc})
}

// registerShared wires an experiment that only consumes shared fleet-wide
// state (no per-network walk).
func registerShared(id, title string, run func(*StreamContext) (*Result, error)) {
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
