// Package hidden implements the thesis's §6 hidden-triple analysis. A
// triple of APs (A, B, C) is *relevant* at bit rate b when A and C can both
// hear B at rate b; it is *hidden* when additionally A and C cannot hear
// each other — the topology that produces hidden terminals. Hearing is
// thresholded: two APs hear each other at rate b when more than t of the
// probes sent between them at rate b get through (the thesis uses t = 10%
// and reports that results are insensitive to t).
//
// The package also implements §6.2's notion of range: the number of node
// pairs that can hear each other at a rate, normalized against the
// network's range at 1 Mbit/s.
package hidden

import (
	"meshlab/internal/dataset"
	"meshlab/internal/routing"
)

// Graph is a symmetric hearing relation over a network's APs at one rate
// and threshold, stored as a flat row-major boolean matrix.
type Graph struct {
	n    int
	hear []bool
}

// HearingGraph thresholds a success matrix into a hearing graph: i and j
// hear each other when the mean of the two directed delivery probabilities
// exceeds threshold.
func HearingGraph(m routing.Matrix, threshold float64) *Graph {
	n := m.Size()
	g := &Graph{n: n, hear: make([]bool, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := (m.At(i, j) + m.At(j, i)) / 2
			if p > threshold {
				g.hear[i*n+j] = true
				g.hear[j*n+i] = true
			}
		}
	}
	return g
}

// Hears reports whether i and j hear each other.
func (g *Graph) Hears(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= g.n || j >= g.n {
		return false
	}
	return g.hear[i*g.n+j]
}

// Size returns the node count.
func (g *Graph) Size() int { return g.n }

// Range returns the number of unordered node pairs that hear each other
// (§6.2's definition of a network's range at a rate).
func (g *Graph) Range() int {
	count := 0
	for i := 0; i < g.n; i++ {
		row := g.hear[i*g.n : (i+1)*g.n]
		for j := i + 1; j < g.n; j++ {
			if row[j] {
				count++
			}
		}
	}
	return count
}

// CountTriples returns the number of relevant triples (A and C both hear
// the center B) and how many of those are hidden (A and C do not hear each
// other). Triples are counted once per unordered {A, C} pair per center.
func (g *Graph) CountTriples() (relevant, hidden int) {
	nbrs := make([]int, 0, g.n)
	for b := 0; b < g.n; b++ {
		// Neighbors of the center.
		nbrs = nbrs[:0]
		row := g.hear[b*g.n : (b+1)*g.n]
		for a, h := range row {
			if h {
				nbrs = append(nbrs, a)
			}
		}
		for x := 0; x < len(nbrs); x++ {
			hrow := g.hear[nbrs[x]*g.n : (nbrs[x]+1)*g.n]
			for y := x + 1; y < len(nbrs); y++ {
				relevant++
				if !hrow[nbrs[y]] {
					hidden++
				}
			}
		}
	}
	return relevant, hidden
}

// RateResult is the triple census of one network at one rate.
type RateResult struct {
	// RateIdx indexes the network band's rates.
	RateIdx int
	// Relevant and Hidden are the triple counts; Fraction is
	// Hidden/Relevant (0 when no relevant triples exist).
	Relevant, Hidden int
	Fraction         float64
	// Range is the number of hearing pairs at this rate.
	Range int
}

// NetworkResult is the full §6 census of one network.
type NetworkResult struct {
	Net   string
	Env   string
	Size  int
	Rates []RateResult
}

// RangeRatio returns the network's range at rate ri divided by its range
// at the reference rate (§6.2's change-in-range), and false when the
// reference range is zero.
func (nr *NetworkResult) RangeRatio(ri, refRate int) (float64, bool) {
	var cur, ref *RateResult
	for i := range nr.Rates {
		if nr.Rates[i].RateIdx == ri {
			cur = &nr.Rates[i]
		}
		if nr.Rates[i].RateIdx == refRate {
			ref = &nr.Rates[i]
		}
	}
	if cur == nil || ref == nil || ref.Range == 0 {
		return 0, false
	}
	return float64(cur.Range) / float64(ref.Range), true
}

// Census computes relevant/hidden triples and range for every rate of a
// network from its precomputed per-rate success matrices. Callers that
// already solved the matrices (the experiment walk derives them once per
// live network) use it to avoid the recomputation Analyze performs.
func Census(nd *dataset.NetworkData, ms map[int]routing.Matrix, threshold float64) (*NetworkResult, error) {
	band, err := nd.Band()
	if err != nil {
		return nil, err
	}
	out := &NetworkResult{Net: nd.Info.Name, Env: nd.Info.Env, Size: nd.NumAPs()}
	for ri := range band.Rates {
		g := HearingGraph(ms[ri], threshold)
		rel, hid := g.CountTriples()
		rr := RateResult{RateIdx: ri, Relevant: rel, Hidden: hid, Range: g.Range()}
		if rel > 0 {
			rr.Fraction = float64(hid) / float64(rel)
		}
		out.Rates = append(out.Rates, rr)
	}
	return out, nil
}

// Analyze computes relevant/hidden triples and range for every rate of a
// network's band at the given hearing threshold.
func Analyze(nd *dataset.NetworkData, threshold float64) (*NetworkResult, error) {
	ms, err := routing.SuccessMatrices(nd)
	if err != nil {
		return nil, err
	}
	return Census(nd, ms, threshold)
}

// AnalyzeAll runs Analyze over several networks, skipping none; callers
// filter by environment or size as the figures require.
func AnalyzeAll(nets []*dataset.NetworkData, threshold float64) ([]*NetworkResult, error) {
	var out []*NetworkResult
	for _, nd := range nets {
		nr, err := Analyze(nd, threshold)
		if err != nil {
			return nil, err
		}
		out = append(out, nr)
	}
	return out, nil
}
