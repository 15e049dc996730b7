package experiments

// stream.go implements the experiment suite's execution engine. A
// StreamContext consumes a fleet one network at a time, in fleet order —
// from a wire.Reader walk (meshlab.StreamFleet) or an in-memory fleet
// (meshlab.RunFleet) — runs every selected experiment's accumulator over
// each network before the network is released, and finalizes into one
// []*Result, byte-identical at any worker count. The §4 samples flow the
// same way: per-network groups (flattened off the walk, or streamed from
// a file's flat-sample section) feed chunked accumulators and are
// released, so peak memory is bounded by the derived tables the
// accumulators retain (improvement distributions, censuses,
// count/histogram tables) plus the bounded window of in-flight networks —
// never by the fleet or the sample count.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/hidden"
	"meshlab/internal/mobility"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

// NetView hands an observer one network plus its derived data — routing
// success matrices, opportunistic-routing comparisons, hidden-triple
// censuses — computed at most once per network no matter how many
// experiments ask, and cached only while the network is live. Views are
// not safe for concurrent use; the pipeline hands each network's view to
// one goroutine at a time (a worker during prepare, then the collector
// during the ordered observe), so they need no locking.
type NetView struct {
	nd *dataset.NetworkData

	ms     map[int]routing.Matrix
	msErr  error
	msDone bool

	imps     map[impKey][]routing.PairResult
	impsErr  error
	impsDone bool

	hiddens map[float64]*hidden.NetworkResult
}

// impKey identifies one (rate, ETX variant) routing comparison of a
// network.
type impKey struct {
	rate    int
	variant routing.Variant
}

// Data returns the decoded network.
func (nv *NetView) Data() *dataset.NetworkData { return nv.nd }

// Matrices returns the network's per-rate mean success matrices.
func (nv *NetView) Matrices() (map[int]routing.Matrix, error) {
	if !nv.msDone {
		nv.ms, nv.msErr = routing.SuccessMatrices(nv.nd)
		nv.msDone = true
	}
	return nv.ms, nv.msErr
}

// Improvements returns the network's opportunistic-routing comparison at
// one rate and ETX variant; all (rate, variant) pairs are computed on the
// first request, since the §5 figures sweep every pair anyway.
func (nv *NetView) Improvements(rate int, v routing.Variant) ([]routing.PairResult, error) {
	if !nv.impsDone {
		nv.impsDone = true
		ms, err := nv.Matrices()
		if err != nil {
			nv.impsErr = err
		} else {
			nv.imps = improvementSweep(ms)
		}
	}
	if nv.impsErr != nil {
		return nil, nv.impsErr
	}
	return nv.imps[impKey{rate: rate, variant: v}], nil
}

// Hidden returns the network's §6 triple census at a hearing threshold.
func (nv *NetView) Hidden(threshold float64) (*hidden.NetworkResult, error) {
	if nr, ok := nv.hiddens[threshold]; ok {
		return nr, nil
	}
	ms, err := nv.Matrices()
	if err != nil {
		return nil, err
	}
	nr, err := hidden.Census(nv.nd, ms, threshold)
	if err != nil {
		return nil, err
	}
	if nv.hiddens == nil {
		nv.hiddens = make(map[float64]*hidden.NetworkResult, 4)
	}
	nv.hiddens[threshold] = nr
	return nr, nil
}

// improvementSweep computes a network's opportunistic-routing comparison
// for every (rate, ETX variant) pair of its success matrices. The
// 2 × |rates| routing.Improvements calls are independent, so they fan out
// across the process worker budget and are assembled by index: the result
// is identical at any budget, and `-workers 1` runs them serially. On the
// largest networks this sweep is the pipeline's critical path.
func improvementSweep(ms map[int]routing.Matrix) map[impKey][]routing.PairResult {
	rates := make([]int, 0, len(ms))
	for ri := range ms {
		rates = append(rates, ri)
	}
	sort.Ints(rates)
	variants := []routing.Variant{routing.ETX1, routing.ETX2}
	res := make([][]routing.PairResult, len(variants)*len(rates))
	_ = conc.ForEach(len(res), func(i int) error {
		res[i] = routing.Improvements(ms[rates[i%len(rates)]], variants[i/len(rates)])
		return nil
	})
	out := make(map[impKey][]routing.PairResult, len(res))
	for i, prs := range res {
		out[impKey{rate: rates[i%len(rates)], variant: variants[i/len(rates)]}] = prs
	}
	return out
}

// streamJob is one network moving through the pipeline: a worker fills
// the view's derived cache (prepare), then the collector applies the
// ordered observes and drops the job — releasing the network.
type streamJob struct {
	nv   *NetView
	err  error
	done chan struct{}
}

// StreamContext runs a set of experiments over a single walk of a fleet.
// The caller calls Observe once per network in fleet order (from one
// goroutine), SetClients and, on a DeferSamples run, the sample groups
// of the trailing section, then Finalize for the results. A run over no
// networks at all is the §4 sample-only mode: DeferSamples plus the
// groups of a dataset file. Per-network heavy work — routing solutions,
// improvement sweeps, triple censuses — fans across a bounded worker
// pool while accumulator state is updated strictly in fleet order, so
// the emitted results are byte-identical at any pool size.
type StreamContext struct {
	workers int
	ids     []string
	accs    []accumulator

	start         sync.Once
	jobs          chan *streamJob
	collectorDone chan struct{}

	mu          sync.Mutex
	idle        *sync.Cond // broadcast when inFlight drops to 0 (Flush)
	err         error
	inFlight    int
	maxInFlight int

	// §4 sample handling: either the walk flattens each network and feeds
	// the chunked sample accumulators directly (the samples are then
	// released with the network), or the driver defers to a dataset file's
	// flat-sample section and streams its groups through
	// ObserveSampleGroup after the walk (the section trails the network
	// records on disk).
	deferSamples bool
	samplesDone  bool
	sampleObs    []sampleObsAt

	cds []*dataset.ClientData
	mob memo[*mobility.Analysis]

	networks  int
	drained   bool
	finalized bool
}

// sampleObsAt pairs a §4 accumulator with its slot in the run, for error
// context.
type sampleObsAt struct {
	idx int
	so  sampleObserver
}

// NewStreamContext prepares a run of every registered experiment, in
// paper order. workers bounds the pipeline (≤ 0 means the process worker
// budget); it also bounds how many decoded networks are in flight at
// once.
func NewStreamContext(workers int) *StreamContext {
	s, err := NewStreamContextFor(workers, IDs())
	if err != nil {
		panic(err) // IDs() lists only registered experiments
	}
	return s
}

// NewStreamContextFor prepares a run of the given experiments, whose
// results Finalize returns in the order ids are given. An unknown ID is
// an error naming the known set. workers is as for NewStreamContext.
func NewStreamContextFor(workers int, ids []string) (*StreamContext, error) {
	if workers <= 0 {
		workers = conc.Budget()
	}
	s := &StreamContext{
		workers:       workers,
		ids:           append([]string(nil), ids...),
		jobs:          make(chan *streamJob, workers),
		collectorDone: make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	for i, id := range s.ids {
		r, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
		}
		acc := registry[r].newAcc()
		s.accs = append(s.accs, acc)
		if so, ok := acc.(sampleObserver); ok {
			s.sampleObs = append(s.sampleObs, sampleObsAt{idx: i, so: so})
		}
	}
	return s, nil
}

// DeferSamples declares that the §4 samples will arrive as groups via
// ObserveSampleGroup after the walk — a dataset file's flat-sample
// section — so the walk skips incremental flattening. Must be called
// before the first Observe; the caller must then call FinishSamples
// before Finalize.
func (s *StreamContext) DeferSamples() { s.deferSamples = true }

// feedSampleGroup hands one network's samples to every §4 accumulator,
// fanned across the worker budget — their states are independent.
func (s *StreamContext) feedSampleGroup(band string, group []snr.Sample) error {
	return conc.ForEach(len(s.sampleObs), func(k int) error {
		o := s.sampleObs[k]
		if err := o.so.observeSampleGroup(band, group); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[o.idx], err)
		}
		return nil
	})
}

// ObserveSampleGroup feeds one per-network sample group from a dataset
// file's flat-sample section (a wire.Reader SampleGroups walk). Only
// valid on a DeferSamples run, from the driver goroutine, after the last
// Observe.
func (s *StreamContext) ObserveSampleGroup(band string, samples []snr.Sample) error {
	if !s.deferSamples {
		return fmt.Errorf("experiments: ObserveSampleGroup without DeferSamples (the walk already fed the samples)")
	}
	if s.finalized {
		return fmt.Errorf("experiments: ObserveSampleGroup after Finalize")
	}
	s.samplesDone = true
	return s.feedSampleGroup(band, samples)
}

// FinishSamples marks the deferred sample stream complete. A DeferSamples
// run that never saw the section fails Finalize loudly instead of
// emitting empty §4 tables; a section with zero groups is still
// "complete".
func (s *StreamContext) FinishSamples() { s.samplesDone = true }

// SetClients supplies the client datasets (the file section after the
// networks). Must be called before Finalize.
func (s *StreamContext) SetClients(cds []*dataset.ClientData) { s.cds = cds }

// loadErr returns the first pipeline error, if any.
func (s *StreamContext) loadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Observe feeds the next network (in fleet order) into the pipeline. It
// blocks while the bounded window of in-flight networks is full, and
// returns the first pipeline error so the driver can abort its walk. The
// network must not be mutated after the call; it is released once every
// accumulator has observed it.
func (s *StreamContext) Observe(nd *dataset.NetworkData) error {
	if s.drained || s.finalized {
		return fmt.Errorf("experiments: Observe after Drain/Finalize")
	}
	if err := s.loadErr(); err != nil {
		return err
	}
	s.start.Do(func() { go s.collect() })
	s.mu.Lock()
	s.networks++
	s.inFlight++
	if s.inFlight > s.maxInFlight {
		s.maxInFlight = s.inFlight
	}
	s.mu.Unlock()
	j := &streamJob{
		nv:   &NetView{nd: nd},
		done: make(chan struct{}),
	}
	s.jobs <- j // FIFO: the collector applies jobs in send order
	go func() {
		j.err = s.prepare(j.nv)
		close(j.done)
	}()
	return nil
}

// prepare runs on a pipeline worker: every accumulator that declares
// expensive per-network work fills the view's derived cache here, off the
// ordered path.
func (s *StreamContext) prepare(nv *NetView) error {
	for _, acc := range s.accs {
		if p, ok := acc.(preparer); ok {
			if err := p.prepare(nv); err != nil {
				return err
			}
		}
	}
	return nil
}

// collect drains the pipeline in fleet order, applying each network to
// every accumulator and the incremental flatteners, then releasing it.
func (s *StreamContext) collect() {
	for j := range s.jobs {
		<-j.done
		s.mu.Lock()
		if s.err == nil {
			if j.err != nil {
				s.err = j.err
			} else {
				s.err = s.applyOrdered(j.nv)
			}
		}
		s.inFlight--
		if s.inFlight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
	close(s.collectorDone)
}

// applyOrdered runs the serial, order-sensitive part of one network:
// flatten-and-feed of its §4 sample group (skipped when no selected
// experiment consumes samples), then every accumulator's observe. The
// flattened samples are released with the network — the chunked
// accumulators retain only their tables — so a section-less stream is
// sample-bounded too.
func (s *StreamContext) applyOrdered(nv *NetView) error {
	if !s.deferSamples && len(s.sampleObs) > 0 {
		nd := nv.Data()
		group, err := snr.Flatten([]*dataset.NetworkData{nd})
		if err != nil {
			return err
		}
		if err := s.feedSampleGroup(nd.Info.Band, group); err != nil {
			return err
		}
	}
	for i, acc := range s.accs {
		if err := acc.observe(nv); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[i], err)
		}
	}
	return nil
}

// Stats reports pipeline accounting for the finished (or in-progress)
// walk: how many networks were observed and the largest number
// simultaneously in flight — the figure that substantiates the
// bounded-memory claim, since in-flight networks are the only raw probe
// data a streaming run holds.
func (s *StreamContext) Stats() (networks, maxInFlight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.networks, s.maxInFlight
}

// Drain shuts the pipeline down and applies every in-flight network to
// the accumulators — Finalize's first half, without rendering results.
// After Drain the context must not be observed again; its remaining uses
// are Merge (in either direction) and, on the merge target, Finalize.
// Drain is idempotent and returns the first pipeline error.
func (s *StreamContext) Drain() error {
	if !s.drained {
		s.drained = true
		s.start.Do(func() { go s.collect() })
		close(s.jobs)
		<-s.collectorDone
	}
	return s.loadErr()
}

// Finalize drains the pipeline and renders every experiment of the run,
// in its order, fanning finalizers across the worker pool. It must be called
// exactly once, after the last Observe (and, on a DeferSamples run,
// after the sample-group walk).
func (s *StreamContext) Finalize() ([]*Result, error) {
	if s.finalized {
		return nil, fmt.Errorf("experiments: Finalize called twice")
	}
	s.finalized = true
	if err := s.Drain(); err != nil {
		return nil, err
	}
	if s.deferSamples && !s.samplesDone {
		return nil, fmt.Errorf("experiments: DeferSamples without a sample walk: the network walk skipped flattening but no flat-sample groups were observed (stream the section through ObserveSampleGroup, then FinishSamples)")
	}
	results := make([]*Result, len(s.accs))
	err := conc.ForEachN(len(s.accs), s.workers, func(i int) error {
		res, err := s.accs[i].finalize(s)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[i], err)
		}
		r := registry[byID[s.ids[i]]]
		res.ID = r.id
		res.Title = r.title
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// analysis runs the §7 mobility aggregation over the run's client data
// once.
func (s *StreamContext) analysis() *mobility.Analysis {
	a, _ := s.mob.get(func() (*mobility.Analysis, error) {
		return mobility.Analyze(s.cds, mobility.DefaultGap), nil
	})
	return a
}
