package snr

// This file implements the thesis's §4.5 augmented-table analysis: instead
// of trusting the single most-frequent optimal rate per (link, SNR), keep
// the top-k rates and let a probing algorithm (e.g. SampleRate) explore
// only those. The quantity of interest is how often the true optimum falls
// inside the candidate set — if it almost always does, probing overhead
// drops by the ratio of the candidate set to the full rate set, which is
// the thesis's main hope for 802.11n and its "several dozen" rates.

// optRank returns rate popt's position in its cell's count row c under
// the top-k order (count descending, ties toward the lower rate index):
// the number of rates with a higher count, or an equal count and a lower
// index. The cell's top-k candidate set holds popt exactly when
// inTopK(rank, k). In-sample, popt is always a nonzero entry of its own
// trained cell, so every rate ranked ahead of it is nonzero too — the
// rank is exact without materializing or sorting the candidate set.
func optRank(c []int, popt int) int {
	n, rank := c[popt], 0
	for ri, m := range c {
		if m > n || (m == n && ri < popt) {
			rank++
		}
	}
	return rank
}

// inTopK reports whether a rate of the given rank is among its cell's k
// most frequently optimal rates; k < 1 counts as 1.
func inTopK(rank, k int) bool { return rank < max(k, 1) }

// TopKResult summarizes the candidate-set analysis at one k.
type TopKResult struct {
	K int
	// HitFrac is the fraction of probe sets whose true optimal rate is
	// inside the top-K candidate set of their cell.
	HitFrac float64
	// Evaluated counts the probe sets with table data.
	Evaluated int
	// ProbeReduction is 1 − K/numRates: how much probing a
	// candidate-restricted prober saves versus probing every rate.
	ProbeReduction float64
}

// TopKCoverage trains a table at the given scope and evaluates, for each
// k, how often the optimum lies in the top-k candidate set (in-sample, as
// §4 does throughout).
func TopKCoverage(samples []Sample, numRates int, scope Scope, ks []int) []TopKResult {
	tbl := Train(samples, numRates, scope)
	ranks := make([]int, 0, len(samples))
	for i := range samples {
		s := &samples[i]
		if c, ok := tbl.cell(s); ok {
			ranks = append(ranks, optRank(c, s.Popt))
		}
	}
	evaluated := len(ranks)
	out := make([]TopKResult, 0, len(ks))
	for _, k := range ks {
		hits := 0
		for _, rank := range ranks {
			if inTopK(rank, k) {
				hits++
			}
		}
		out = append(out, topKResult(k, hits, evaluated, numRates))
	}
	return out
}

// topKResult assembles one k's coverage outcome.
func topKResult(k, hits, evaluated, numRates int) TopKResult {
	res := TopKResult{K: k, Evaluated: evaluated}
	if evaluated > 0 {
		res.HitFrac = float64(hits) / float64(evaluated)
	}
	if numRates > 0 {
		res.ProbeReduction = max(1-float64(k)/float64(numRates), 0)
	}
	return res
}
