package experiments

// snapshot.go serializes every experiment accumulator's partial state and
// folds it back. One codec pair serves two uses:
//
//   - Checkpoint resume: a StreamContext serializes all partial state at a
//     network boundary (Snapshot), and a fresh context folds it in
//     (Restore) and continues the walk, finalizing byte-identically to an
//     uninterrupted run. internal/shard does this through
//     internal/checkpoint to make crashed streaming runs resumable.
//   - Shard merge: a shard runner runs one StreamContext per contiguous
//     network-range shard, then folds the partials, in shard order, into
//     the first (Merge: encode the other context, fold the bytes in). The
//     merged context finalizes byte-identically to a whole-fleet run.
//
// Every restore therefore adds to the receiver instead of replacing it.
// Why the fold is exact: each accumulator's persistent state is either
// (a) integer counters and count-histogram tables (the §4 cores, via
// their own snr codecs), where folding is addition with no floating-point
// reassociation, or (b) values appended once per network in fleet order
// (the §3/§5/§6 censuses), where appending contiguous partials in order
// reproduces the exact fleet-order sequence — a resumed walk then appends
// the networks after the snapshot's prefix. Shared-only experiments (§7,
// the ablations) keep no per-network state: they serialize nothing, and
// their finalize runs once, on the final context.
//
// A snapshot must be taken from the driver goroutine between Observes
// (or between sample groups), after Flush has quiesced the pipeline —
// Snapshot does both itself.

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"meshlab/internal/binio"
	"meshlab/internal/conc"
	"meshlab/internal/hidden"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

// streamSnapVersion versions the StreamContext snapshot envelope.
const streamSnapVersion = 1

// Shared snapshot helpers.

func writeF64s(w *binio.Writer, vs []float64) {
	w.Int(len(vs))
	w.F64s(vs)
}

// readF64s appends a decoded slice to dst.
func readF64s(r *binio.Reader, dst []float64) []float64 {
	return r.F64s(dst, r.Count(8))
}

func sortedImpKeys[V any](m map[impKey]V) []impKey {
	keys := make([]impKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rate != keys[j].rate {
			return keys[i].rate < keys[j].rate
		}
		return keys[i].variant < keys[j].variant
	})
	return keys
}

func writeImpFloats(w *binio.Writer, m map[impKey][]float64) {
	keys := sortedImpKeys(m)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k.rate)
		w.Int(int(k.variant))
		writeF64s(w, m[k])
	}
}

func readImpFloats(r *binio.Reader, dst map[impKey][]float64) {
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := impKey{rate: r.Int()}
		k.variant = routing.Variant(r.Int())
		dst[k] = readF64s(r, dst[k])
	}
}

func writeImpInts(w *binio.Writer, m map[impKey]int) {
	keys := sortedImpKeys(m)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k.rate)
		w.Int(int(k.variant))
		w.Int(m[k])
	}
}

func readImpInts(r *binio.Reader, dst map[impKey]int) {
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := impKey{rate: r.Int()}
		k.variant = routing.Variant(r.Int())
		dst[k] += r.Int()
	}
}

func writeIntFloats(w *binio.Writer, m map[int][]float64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
		writeF64s(w, m[k])
	}
}

func readIntFloats(r *binio.Reader, dst map[int][]float64) {
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Int()
		dst[k] = readF64s(r, dst[k])
	}
}

func writeCensus(w *binio.Writer, results []*hidden.NetworkResult) {
	w.Int(len(results))
	for _, nr := range results {
		w.String(nr.Net)
		w.String(nr.Env)
		w.Int(nr.Size)
		w.Int(len(nr.Rates))
		for _, rr := range nr.Rates {
			w.Int(rr.RateIdx)
			w.Int(rr.Relevant)
			w.Int(rr.Hidden)
			w.F64(rr.Fraction)
			w.Int(rr.Range)
		}
	}
}

// readCensus appends a decoded census to dst.
func readCensus(r *binio.Reader, dst []*hidden.NetworkResult) []*hidden.NetworkResult {
	n := r.Count(8)
	dst = slices.Grow(dst, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		nr := &hidden.NetworkResult{Net: r.String(), Env: r.String(), Size: r.Int()}
		m := r.Count(8)
		for j := 0; j < m && r.Err() == nil; j++ {
			nr.Rates = append(nr.Rates, hidden.RateResult{
				RateIdx: r.Int(), Relevant: r.Int(), Hidden: r.Int(),
				Fraction: r.F64(), Range: r.Int(),
			})
		}
		dst = append(dst, nr)
	}
	return dst
}

func (sharedOnly) snapshot(*binio.Writer)      {}
func (sharedOnly) restore(*binio.Reader) error { return nil }

// §3

func (a *fig31Acc) snapshot(w *binio.Writer) {
	writeF64s(w, a.probeStds)
	writeF64s(w, a.linkStds)
	writeF64s(w, a.netStds)
}

func (a *fig31Acc) restore(r *binio.Reader) error {
	a.probeStds = readF64s(r, a.probeStds)
	a.linkStds = readF64s(r, a.linkStds)
	a.netStds = readF64s(r, a.netStds)
	return r.Err()
}

// §4 — delegate to the chunked snr cores, whose folds are pinned by their
// own snapshot→restore→continue and shard-vs-whole oracles.

func (a *fig41Acc) snapshot(w *binio.Writer) { w.Check(a.sets.Snapshot(w)) }
func (a *fig41Acc) restore(r *binio.Reader) error {
	if err := a.sets.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

func (a *coverageAcc) snapshot(w *binio.Writer) {
	w.Int(len(a.scope))
	for _, acc := range a.scope {
		w.Check(acc.Snapshot(w))
	}
}

func (a *coverageAcc) restore(r *binio.Reader) error {
	if n := r.Int(); r.Err() == nil && n != len(a.scope) {
		return fmt.Errorf("coverage snapshot has %d scopes, accumulator %d", n, len(a.scope))
	}
	for _, acc := range a.scope {
		if err := acc.Restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// bandCore is the chunked snr core behind one band of a per-band table.
type bandCore interface {
	ObserveGroup([]snr.Sample)
	Snapshot(io.Writer) error
	Restore(io.Reader) error
}

// sampleBand is one band's core plus how many samples it has seen.
type sampleBand[C bandCore] struct {
	name string
	acc  C
	seen int
}

// sampleBands is the per-band §4 state fig4.4 and ext4.topk embed: it
// routes each sample group to its band's core and carries their shared
// snapshot and restore.
type sampleBands[C bandCore] struct {
	sampleAcc
	bands []sampleBand[C]
}

func newSampleBands[C bandCore](bg, n C) sampleBands[C] {
	return sampleBands[C]{bands: []sampleBand[C]{{name: "bg", acc: bg}, {name: "n", acc: n}}}
}

func (a *sampleBands[C]) observeSampleGroup(band string, samples []snr.Sample) error {
	for i := range a.bands {
		if a.bands[i].name == band {
			a.bands[i].acc.ObserveGroup(samples)
			a.bands[i].seen += len(samples)
		}
	}
	return nil
}

func (a *sampleBands[C]) snapshot(w *binio.Writer) {
	w.Int(len(a.bands))
	for i := range a.bands {
		w.String(a.bands[i].name)
		w.Int(a.bands[i].seen)
		w.Check(a.bands[i].acc.Snapshot(w))
	}
}

func (a *sampleBands[C]) restore(r *binio.Reader) error {
	if n := r.Int(); r.Err() == nil && n != len(a.bands) {
		return fmt.Errorf("snapshot has %d bands, accumulator %d", n, len(a.bands))
	}
	for i := range a.bands {
		if name := r.String(); r.Err() == nil && name != a.bands[i].name {
			return fmt.Errorf("snapshot band %q at slot %d, accumulator %q", name, i, a.bands[i].name)
		}
		a.bands[i].seen += r.Int()
		if err := a.bands[i].acc.Restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

func (a *fig45Acc) snapshot(w *binio.Writer) { w.Check(a.tput.Snapshot(w)) }
func (a *fig45Acc) restore(r *binio.Reader) error {
	if err := a.tput.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

func (a *fig46Acc) snapshot(w *binio.Writer) { w.Check(a.strat.Snapshot(w)) }
func (a *fig46Acc) restore(r *binio.Reader) error {
	if err := a.strat.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

func (a *tab41Acc) snapshot(w *binio.Writer) { w.Check(a.strat.Snapshot(w)) }
func (a *tab41Acc) restore(r *binio.Reader) error {
	if err := a.strat.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

// §5

func (a *fig51Acc) snapshot(w *binio.Writer) {
	w.Int(a.nets)
	writeImpFloats(w, a.imps)
	writeImpInts(w, a.none)
	writeImpInts(w, a.small)
}

func (a *fig51Acc) restore(r *binio.Reader) error {
	a.nets += r.Int()
	readImpFloats(r, a.imps)
	readImpInts(r, a.none)
	readImpInts(r, a.small)
	return r.Err()
}

func (a *fig52Acc) snapshot(w *binio.Writer)      { writeIntFloats(w, a.ratios) }
func (a *fig52Acc) restore(r *binio.Reader) error { readIntFloats(r, a.ratios); return r.Err() }

func (a *fig53Acc) snapshot(w *binio.Writer)      { writeIntFloats(w, a.hops) }
func (a *fig53Acc) restore(r *binio.Reader) error { readIntFloats(r, a.hops); return r.Err() }

func (a *fig54Acc) snapshot(w *binio.Writer)      { writeIntFloats(w, a.byHops) }
func (a *fig54Acc) restore(r *binio.Reader) error { readIntFloats(r, a.byHops); return r.Err() }

func (a *fig55Acc) snapshot(w *binio.Writer) {
	w.Int(len(a.pts))
	for _, p := range a.pts {
		w.Int(p.size)
		w.F64(p.mean)
		w.F64(p.std)
	}
}

func (a *fig55Acc) restore(r *binio.Reader) error {
	n := r.Count(24)
	for i := 0; i < n && r.Err() == nil; i++ {
		a.pts = append(a.pts, netPoint{size: r.Int(), mean: r.F64(), std: r.F64()})
	}
	return r.Err()
}

// §6 — censusBG is embedded, so one promoted implementation covers
// fig6.1, fig6.2, and §6.3.

func (c *censusBG) snapshot(w *binio.Writer) { writeCensus(w, c.results) }
func (c *censusBG) restore(r *binio.Reader) error {
	c.results = readCensus(r, c.results)
	return r.Err()
}

func (a *abl6tAcc) snapshot(w *binio.Writer) {
	keys := make([]float64, 0, len(a.censuses))
	for k := range a.censuses {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.F64(k)
		writeCensus(w, a.censuses[k])
	}
}

func (a *abl6tAcc) restore(r *binio.Reader) error {
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.F64()
		a.censuses[k] = readCensus(r, a.censuses[k])
	}
	return r.Err()
}

// Extensions

func (a *ext5ettAcc) snapshot(w *binio.Writer) {
	writeF64s(w, a.gains)
	// rateWins is a fixed-length per-rate histogram, not a stream.
	w.Int(len(a.rateWins))
	for _, n := range a.rateWins {
		w.Int(n)
	}
}

func (a *ext5ettAcc) restore(r *binio.Reader) error {
	a.gains = readF64s(r, a.gains)
	if n := r.Count(8); r.Err() == nil && n != len(a.rateWins) {
		return fmt.Errorf("snapshot has %d rate bins, accumulator %d", n, len(a.rateWins))
	}
	for i := 0; i < len(a.rateWins) && r.Err() == nil; i++ {
		a.rateWins[i] += r.Int()
	}
	return r.Err()
}

// ext6mac's rng root is keyed by (network name, triple index) and is
// stateless across networks, so it is reconstructed at NewStreamContext
// and deliberately not serialized; a shard's penalties are therefore
// identical to the whole run's.
func (a *ext6macAcc) snapshot(w *binio.Writer) {
	writeF64s(w, a.hiddenPens)
	writeF64s(w, a.openPens)
}

func (a *ext6macAcc) restore(r *binio.Reader) error {
	a.hiddenPens = readF64s(r, a.hiddenPens)
	a.openPens = readF64s(r, a.openPens)
	return r.Err()
}

// StreamContext integration.

// Flush blocks until every network already accepted by Observe has been
// applied to the accumulators, and returns the first pipeline error. It
// must be called from the driver goroutine (never concurrently with
// Observe); afterwards the accumulators are quiescent until the next
// Observe/ObserveSampleGroup.
func (s *StreamContext) Flush() error {
	if s.drained {
		return s.loadErr()
	}
	s.start.Do(func() { go s.collect() })
	s.mu.Lock()
	for s.inFlight > 0 {
		s.idle.Wait()
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// Snapshot quiesces the pipeline and serializes every accumulator's
// partial state — the walk's position must be a network boundary (and,
// during a deferred sample walk, a sample-group network boundary), so a
// fresh context restored from these bytes and fed the remaining
// networks/groups finalizes byte-identically to an uninterrupted run.
// The context remains live and may continue observing.
func (s *StreamContext) Snapshot(w io.Writer) error {
	if s.drained || s.finalized {
		return fmt.Errorf("experiments: Snapshot after Drain/Finalize")
	}
	if err := s.Flush(); err != nil {
		return err
	}
	return s.encode(w)
}

// encode writes the snapshot envelope, then every accumulator's partial
// state in run order. The accumulators must be quiescent.
func (s *StreamContext) encode(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.U8(streamSnapVersion)
	networks, _ := s.Stats()
	bw.Int(networks)
	bw.Bool(s.samplesDone)
	bw.Int(len(s.accs))
	for i, acc := range s.accs {
		bw.String(s.ids[i])
		acc.snapshot(bw)
		if err := bw.Err(); err != nil {
			return fmt.Errorf("experiments: %s: snapshot: %w", s.ids[i], err)
		}
	}
	return bw.Err()
}

// Restore loads a Snapshot into this context, which must be freshly
// constructed over the same experiment IDs (any worker count) and not
// yet observed.
// The driver then continues the walk from the first network (and sample
// group) the snapshot had not fully observed. A corrupt or mismatched
// snapshot errors and may leave the context partly folded: callers must
// discard the context on error.
func (s *StreamContext) Restore(r io.Reader) error {
	if s.networks != 0 || s.drained || s.finalized || s.samplesDone {
		return fmt.Errorf("experiments: Restore on a used context")
	}
	return s.fold(r)
}

// Merge drains the contexts and folds each of others' accumulator state
// into this one, in order, as if this context had observed their
// networks (and sample groups) after its own: each is encoded exactly as
// Snapshot would write it, and the bytes fold in through Restore's
// decoder. Each encode touches only its own drained context, so they run
// concurrently on this context's worker budget; the folds into s run in
// order. All contexts must be built over the same experiment IDs, in the
// same order (any worker counts); others must have observed contiguous
// runs of networks that follow this context's, in order, and must not be
// used afterwards. Client data is not merged — the caller sets it once on
// the merge target.
func (s *StreamContext) Merge(others ...*StreamContext) error {
	if s.finalized {
		return fmt.Errorf("experiments: Merge after Finalize")
	}
	if err := s.Drain(); err != nil {
		return err
	}
	for _, o := range others {
		if o.finalized {
			return fmt.Errorf("experiments: Merge after Finalize")
		}
		if err := o.Drain(); err != nil {
			return err
		}
		if !slices.Equal(s.ids, o.ids) {
			return fmt.Errorf("experiments: Merge across different experiment sets (%s vs %s)", strings.Join(s.ids, ","), strings.Join(o.ids, ","))
		}
	}
	bufs := make([]bytes.Buffer, len(others))
	if err := conc.ForEachN(len(others), s.workers, func(i int) error {
		return others[i].encode(&bufs[i])
	}); err != nil {
		return err
	}
	for i, o := range others {
		if err := s.fold(&bufs[i]); err != nil {
			return err
		}
		_, oMax := o.Stats()
		s.mu.Lock()
		s.maxInFlight = max(s.maxInFlight, oMax)
		s.mu.Unlock()
	}
	return nil
}

// fold decodes a snapshot and adds it to this context: every
// accumulator's restore folds into its own state, networks add, and
// samplesDone ORs.
func (s *StreamContext) fold(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != streamSnapVersion {
		return fmt.Errorf("experiments: snapshot version %d, want %d", v, streamSnapVersion)
	}
	networks := br.Int()
	samplesDone := br.Bool()
	n := br.Int()
	if err := br.Err(); err != nil {
		return fmt.Errorf("experiments: snapshot: %w", err)
	}
	if networks < 0 {
		return fmt.Errorf("experiments: snapshot claims %d networks", networks)
	}
	if n != len(s.accs) {
		return fmt.Errorf("experiments: snapshot has %d experiments, context %d", n, len(s.accs))
	}
	for i, acc := range s.accs {
		id := br.String()
		if err := br.Err(); err != nil {
			return fmt.Errorf("experiments: %s: snapshot: %w", s.ids[i], err)
		}
		if id != s.ids[i] {
			return fmt.Errorf("experiments: snapshot experiment %q at slot %d, context %q", id, i, s.ids[i])
		}
		if err := acc.restore(br); err != nil {
			return fmt.Errorf("experiments: %s: restore: %w", s.ids[i], err)
		}
	}
	if err := br.Err(); err != nil {
		return fmt.Errorf("experiments: snapshot: %w", err)
	}
	s.mu.Lock()
	s.networks += networks
	s.mu.Unlock()
	s.samplesDone = s.samplesDone || samplesDone
	return nil
}
