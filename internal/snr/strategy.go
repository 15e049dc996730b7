package snr

import "fmt"

// Strategy is an online table-building policy (§4.5, Figure 4.6,
// Table 4.1): how a node keeps its per-link SNR→rate table up to date.
type Strategy int

const (
	// First keeps only the first optimal rate observed at each SNR.
	First Strategy = iota
	// MostRecent keeps only the most recent optimal rate per SNR.
	MostRecent
	// Subsampled keeps counts updated from every third probe set.
	Subsampled
	// All keeps counts over every probe set.
	All
)

// String names the strategy as Table 4.1 does.
func (s Strategy) String() string {
	switch s {
	case First:
		return "first"
	case MostRecent:
		return "most-recent"
	case Subsampled:
		return "subsampled"
	case All:
		return "all"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all online strategies.
var Strategies = []Strategy{First, MostRecent, Subsampled, All}

// StrategyResult aggregates a strategy's replay outcome.
type StrategyResult struct {
	Strategy Strategy
	// Hits[x] and Total[x] count correct and total predictions made when
	// a link had already seen x probe sets (x ∈ [1, len-1]; index 0 is
	// unused because no prediction is attempted with no history).
	Hits, Total []int
	// Updates is the number of table writes performed.
	Updates int
	// MemEntries is the number of data points retained at the end.
	MemEntries int
	// Skipped counts predictions skipped for lack of data at the SNR.
	Skipped int
}

// Accuracy returns the hit fraction at history length x, or -1 when no
// prediction was made there.
func (r *StrategyResult) Accuracy(x int) float64 {
	if x < 0 || x >= len(r.Total) || r.Total[x] == 0 {
		return -1
	}
	return float64(r.Hits[x]) / float64(r.Total[x])
}

// OverallAccuracy returns the hit fraction over all predictions.
func (r *StrategyResult) OverallAccuracy() float64 {
	h, t := 0, 0
	for i := range r.Total {
		h += r.Hits[i]
		t += r.Total[i]
	}
	if t == 0 {
		return -1
	}
	return float64(h) / float64(t)
}

// ReplayStrategies replays every link's probe sets in time order through
// each strategy, predicting before updating (Figure 4.6). maxX caps the
// history-length axis; longer histories accumulate into the last bucket.
// It is the batch form of StrategyAccum: links never span networks and
// every reported field is an integer sum over per-link replays, so the
// per-network-group fold produces identical results. Like Penalty, it
// requires the samples in Flatten order (networks contiguous, links
// contiguous within them) — a link split across non-adjacent runs would
// restart its online table mid-sequence.
func ReplayStrategies(samples []Sample, numRates, maxX int) []StrategyResult {
	acc := NewStrategyAccum(numRates, maxX)
	_ = ForEachSampleGroup(samples, func(group []Sample) error {
		acc.ObserveGroup(group)
		return nil
	})
	return acc.Finalize()
}

// strategyReplay is every strategy's online table for one link, held
// densely over the link's SNR span (index = SNR − the span's low end) and
// reused from link to link.
type strategyReplay struct {
	first, recent []int32 // per SNR: the kept rate, -1 while unset
	// Per counting strategy (0: Subsampled, 1: All): per-(SNR, rate)
	// optimal-rate counts, and per SNR the running argmax (ties toward
	// the lower rate index, as Table.Lookup breaks them) and its count,
	// which is 0 until the SNR's first count.
	counts, best, bestN [2][]int32
}

// reset sizes and clears the tables for a link spanning width SNRs.
func (r *strategyReplay) reset(width, numRates int) {
	r.first = resizeInt32(r.first, width)
	r.recent = resizeInt32(r.recent, width)
	for i := range r.first {
		r.first[i], r.recent[i] = -1, -1
	}
	for c := range r.counts {
		r.counts[c] = resizeInt32(r.counts[c], width*numRates)
		r.best[c] = resizeInt32(r.best[c], width)
		r.bestN[c] = resizeInt32(r.bestN[c], width)
		clear(r.counts[c])
		clear(r.bestN[c])
	}
}

// bump counts popt at SNR offset o in counting table c, keeping the
// argmax current: only popt's count grew, so it takes over on a new
// maximum or on a tie with a higher-index leader.
func (r *strategyReplay) bump(c, o int, popt int32, numRates int) {
	cell := r.counts[c][o*numRates:]
	cell[popt]++
	if n := cell[popt]; n > r.bestN[c][o] || (n == r.bestN[c][o] && popt < r.best[c][o]) {
		r.best[c][o], r.bestN[c][o] = popt, n
	}
}

// predicted returns counting table c's prediction at SNR offset o, or -1
// before any count there.
func (r *strategyReplay) predicted(c, o int) int32 {
	if r.bestN[c][o] == 0 {
		return -1
	}
	return r.best[c][o]
}

// score folds one prediction (-1: none possible) of the actual rate popt
// at history length x into res.
func score(res *StrategyResult, pred, popt int32, x int) {
	if pred < 0 {
		res.Skipped++
		return
	}
	res.Total[x]++
	if pred == popt {
		res.Hits[x]++
	}
}

// link replays one link's time-ordered probe sets (group[i] for i in
// seq) through every strategy at once, predicting before updating, and
// folds the counters into results (indexed by Strategy).
func (r *strategyReplay) link(results []StrategyResult, group []Sample, seq []int32, numRates, maxX int) {
	lo, width := snrSpan(group, seq)
	r.reset(width, numRates)
	firstUpdates, recentEntries, subUpdates := 0, 0, 0
	for seen, i := range seq {
		s := &group[i]
		o, popt := s.SNR-lo, int32(s.Popt)
		x := min(seen, maxX)
		score(&results[First], r.first[o], popt, x)
		score(&results[MostRecent], r.recent[o], popt, x)
		score(&results[Subsampled], r.predicted(0, o), popt, x)
		score(&results[All], r.predicted(1, o), popt, x)

		if r.first[o] < 0 {
			r.first[o] = popt
			firstUpdates++
		}
		if r.recent[o] < 0 {
			recentEntries++
		}
		r.recent[o] = popt
		// Subsampled counts every third probe set, plus always the first
		// sighting of an SNR so predictions become possible at all.
		if seen%3 == 0 || r.bestN[0][o] == 0 {
			r.bump(0, o, popt, numRates)
			subUpdates++
		}
		r.bump(1, o, popt, numRates)
	}
	// Every update of First, Subsampled and All stores a data point;
	// MostRecent updates on every probe set but stores one per SNR.
	results[First].Updates += firstUpdates
	results[First].MemEntries += firstUpdates
	results[MostRecent].Updates += len(seq)
	results[MostRecent].MemEntries += recentEntries
	results[Subsampled].Updates += subUpdates
	results[Subsampled].MemEntries += subUpdates
	results[All].Updates += len(seq)
	results[All].MemEntries += len(seq)
}
