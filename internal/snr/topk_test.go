package snr

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refTopK is the sort-based top-k reference: the k most frequently
// optimal nonzero rates of a count row, most frequent first, ties toward
// the lower rate index (k < 1 counts as 1).
func refTopK(c []int, k int) []int {
	k = max(k, 1)
	var nonzero []int
	for ri, n := range c {
		if n > 0 {
			nonzero = append(nonzero, ri)
		}
	}
	sort.SliceStable(nonzero, func(a, b int) bool { return c[nonzero[a]] > c[nonzero[b]] })
	if len(nonzero) > k {
		nonzero = nonzero[:k]
	}
	return nonzero
}

// rankedTopK lists a row's top-k candidate set by rank: the rates whose
// optRank passes inTopK, in rank order.
func rankedTopK(c []int, k int) []int {
	var out []int
	for ri, n := range c {
		if n > 0 && inTopK(optRank(c, ri), k) {
			out = append(out, ri)
		}
	}
	sort.Slice(out, func(a, b int) bool { return optRank(c, out[a]) < optRank(c, out[b]) })
	return out
}

func TestTopKOrderingAndTies(t *testing.T) {
	mk := func(popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, SNR: 25, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(3), mk(3), mk(3), mk(5), mk(5), mk(1)}
	tbl := Train(samples, 7, Link)
	c, ok := tbl.cell(&samples[0])
	if !ok {
		t.Fatal("cell should exist")
	}
	for ri, want := range map[int]int{3: 0, 5: 1, 1: 2} {
		if got := optRank(c, ri); got != want {
			t.Errorf("rank of rate %d = %d, want %d", ri, got, want)
		}
	}
	if got := rankedTopK(c, 2); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Fatalf("top-2 = %v, want [3 5]", got)
	}
	// k larger than distinct rates: every observed rate is a candidate.
	if got := rankedTopK(c, 10); len(got) != 3 {
		t.Fatalf("top-10 returned %v, want 3 distinct rates", got)
	}
	// k < 1 clamps to 1.
	if got := rankedTopK(c, 0); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("top-0 = %v, want [3]", got)
	}
}

func TestTopKMissingCell(t *testing.T) {
	tbl := Train(nil, 7, Link)
	s := Sample{Net: "n", From: 0, To: 1, SNR: 25}
	if _, ok := tbl.cell(&s); ok {
		t.Fatal("missing cell should report !ok")
	}
	if res := TopKCoverage(nil, 7, Link, []int{2}); res[0].Evaluated != 0 || res[0].HitFrac != 0 {
		t.Fatalf("coverage over no samples = %+v, want nothing evaluated", res[0])
	}
}

func TestTopKTieBreaksLowIndex(t *testing.T) {
	mk := func(popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, SNR: 25, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(6), mk(2)}
	tbl := Train(samples, 7, Link)
	c, _ := tbl.cell(&samples[0])
	if optRank(c, 2) != 0 || optRank(c, 6) != 1 {
		t.Fatalf("tie should prefer the lower rate index: ranks %d (rate 2), %d (rate 6)",
			optRank(c, 2), optRank(c, 6))
	}
}

// TestOptRankMatchesSortReference is the rank-once oracle: over random
// count rows dense with ties, a nonzero rate is inside the sort-based
// top-k candidate set exactly when its rank passes inTopK, for k in
// {1, 2, 3, numRates+1} (and the clamped k = 0).
func TestOptRankMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5000; trial++ {
		nr := 1 + rng.Intn(12)
		c := make([]int, nr)
		for ri := range c {
			if rng.Intn(3) > 0 {
				c[ri] = rng.Intn(4) // few distinct counts: many ties
			}
		}
		popt := rng.Intn(nr)
		if c[popt] == 0 {
			c[popt] = 1 // in-sample: the optimum is in its own cell
		}
		for _, k := range []int{0, 1, 2, 3, nr + 1} {
			want := false
			for _, ri := range refTopK(c, k) {
				want = want || ri == popt
			}
			if got := inTopK(optRank(c, popt), k); got != want {
				t.Fatalf("row %v, rate %d, k=%d: rank %d says %v, sort reference %v",
					c, popt, k, optRank(c, popt), got, want)
			}
			if got := rankedTopK(c, k); !reflect.DeepEqual(got, refTopK(c, k)) {
				t.Fatalf("row %v, k=%d: ranked set %v, sort reference %v", c, k, got, refTopK(c, k))
			}
		}
	}
}

// TestTopKAccumMatchesSortReference pins the dense per-link TopKAccum
// against the sort-based top-k over a map-trained Link table, on the
// simulated fleet and on links with negative and sparse SNRs, for k in
// {1, 2, 3, numRates+1}.
func TestTopKAccumMatchesSortReference(t *testing.T) {
	const numRates = 7
	ks := []int{1, 2, 3, numRates + 1}
	for name, samples := range map[string][]Sample{
		"simulated":  simulated(t),
		"sparse-snr": sparseSNRSamples(numRates),
	} {
		tbl := Train(samples, numRates, Link)
		hits := make([]int, len(ks))
		for i := range samples {
			s := &samples[i]
			c, _ := tbl.cell(s)
			for ki, k := range ks {
				for _, ri := range refTopK(c, k) {
					if ri == s.Popt {
						hits[ki]++
					}
				}
			}
		}
		acc := NewTopKAccum(numRates, ks)
		_ = ForEachSampleGroup(samples, func(g []Sample) error {
			acc.ObserveGroup(g)
			return nil
		})
		for ki, res := range acc.Finalize() {
			if res.Evaluated != len(samples) || res.HitFrac != float64(hits[ki])/float64(len(samples)) {
				t.Errorf("%s k=%d: accumulator %+v, reference %d/%d hits", name, ks[ki], res, hits[ki], len(samples))
			}
		}
	}
}

func TestTopKCoverageMonotoneInK(t *testing.T) {
	samples := simulated(t)
	results := TopKCoverage(samples, 7, Link, []int{1, 2, 3, 7})
	prev := -1.0
	for _, r := range results {
		if r.HitFrac < prev {
			t.Fatalf("hit fraction must be non-decreasing in k: %v after %v", r.HitFrac, prev)
		}
		prev = r.HitFrac
		if r.Evaluated == 0 {
			t.Fatal("nothing evaluated")
		}
	}
	// k = numRates covers everything by construction.
	if last := results[len(results)-1]; last.HitFrac < 0.999 {
		t.Fatalf("k=numRates hit fraction %v, want 1", last.HitFrac)
	}
	// Small candidate sets should already capture most optima on
	// per-link tables (§4.5's argument).
	if results[1].HitFrac < 0.75 {
		t.Fatalf("top-2 hit fraction %v too low for per-link tables", results[1].HitFrac)
	}
}

func TestTopKProbeReduction(t *testing.T) {
	results := TopKCoverage(simulated(t), 7, Link, []int{2, 9})
	if results[0].ProbeReduction != 1-2.0/7 {
		t.Fatalf("probe reduction %v, want %v", results[0].ProbeReduction, 1-2.0/7)
	}
	if results[1].ProbeReduction != 0 {
		t.Fatalf("k beyond the rate count should save nothing, got %v", results[1].ProbeReduction)
	}
}
