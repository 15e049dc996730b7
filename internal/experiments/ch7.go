package experiments

import (
	"fmt"

	"meshlab/internal/stats"
)

func init() {
	registerShared("fig7.1", "Number of APs visited by clients", fig71)
	registerShared("fig7.2", "Length of client connections", fig72)
	registerShared("fig7.3", "Prevalence CDF, indoor vs outdoor", fig73)
	registerShared("fig7.4", "Persistence CDF, indoor vs outdoor", fig74)
	registerShared("fig7.5", "Prevalence versus persistence per client", fig75)
}

// fig71 reproduces Figure 7.1: the histogram of distinct APs visited per
// client (session).
func fig71(c *StreamContext) (*Result, error) {
	a := c.analysis()
	if a.Sessions == 0 {
		return nil, fmt.Errorf("no client sessions")
	}
	buckets := []struct {
		name   string
		lo, hi int
	}{
		{"1", 1, 1}, {"2", 2, 2}, {"3", 3, 3}, {"4", 4, 4}, {"5", 5, 5},
		{"6-10", 6, 10}, {"11-20", 11, 20}, {"21-50", 21, 50}, {">50", 51, 1 << 30},
	}
	res := &Result{Header: []string{"APs visited", "clients"}}
	max := 0
	for _, b := range buckets {
		n := 0
		for k, cnt := range a.APVisits {
			if k >= b.lo && k <= b.hi {
				n += cnt
			}
		}
		res.Rows = append(res.Rows, []string{b.name, itoa(n)})
	}
	for k := range a.APVisits {
		if k > max {
			max = k
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"majority at 1 AP: %d of %d sessions; busiest client visited %d APs (paper: a few clients exceed 50, one exceeds 105)",
		a.APVisits[1], a.Sessions, max))
	return res, nil
}

// fig72 reproduces Figure 7.2: the CDF of client connection lengths.
func fig72(c *StreamContext) (*Result, error) {
	a := c.analysis()
	if len(a.ConnLengths) == 0 {
		return nil, fmt.Errorf("no connections")
	}
	var hours []float64
	full := 0
	dur := 0.0
	for _, cd := range c.cds {
		if float64(cd.Duration) > dur {
			dur = float64(cd.Duration)
		}
	}
	for _, l := range a.ConnLengths {
		hours = append(hours, l/3600)
		if l >= dur*0.95 {
			full++
		}
	}
	cdf := stats.NewCDF(hours)
	res := &Result{Header: []string{"metric", "value"}}
	res.Rows = append(res.Rows, []string{"sessions", itoa(len(hours))})
	res.Rows = append(res.Rows, []string{"frac < 2 h", f2(cdf.At(2))})
	res.Rows = append(res.Rows, []string{"frac < 5 h", f2(cdf.At(5))})
	res.Rows = append(res.Rows, []string{"median (h)", f2(cdf.Quantile(0.5))})
	res.Rows = append(res.Rows, []string{"frac full duration", f2(float64(full) / float64(len(hours)))})
	res.Notes = append(res.Notes,
		"paper: ≈23% of clients connect under two hours; ≈60% stay the whole 11 hours")
	return res, nil
}

// envQuantiles renders one metric's indoor/outdoor comparison.
func envQuantiles(byEnv map[string][]float64, scale float64, unit string) *Result {
	res := &Result{Header: []string{"environment", "values", "mean", "median", "p90"}}
	for _, env := range []string{"indoor", "outdoor"} {
		xs := byEnv[env]
		if len(xs) == 0 {
			res.Rows = append(res.Rows, []string{env, "0", "-", "-", "-"})
			continue
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * scale
		}
		cdf := stats.NewCDF(scaled)
		res.Rows = append(res.Rows, []string{
			env, itoa(len(xs)),
			f(stats.Mean(scaled)), f(cdf.Quantile(0.5)), f(cdf.Quantile(0.9)),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf("values in %s", unit))
	return res
}

// fig73 reproduces Figure 7.3: prevalence CDFs by environment.
func fig73(c *StreamContext) (*Result, error) {
	a := c.analysis()
	res := envQuantiles(a.PrevalenceByEnv, 1, "fraction of connected time")
	res.Notes = append(res.Notes,
		"paper: indoor mean/median ≈0.07/0.02, outdoor ≈0.15/0.08 — outdoor clients stay with APs longer")
	return res, nil
}

// fig74 reproduces Figure 7.4: persistence CDFs by environment.
func fig74(c *StreamContext) (*Result, error) {
	a := c.analysis()
	res := envQuantiles(a.PersistenceByEnv, 1, "seconds")
	res.Notes = append(res.Notes,
		"paper: indoor mean/median ≈19.4s/6.25s, outdoor ≈38.6s/25s — indoor clients flap between APs faster")
	return res, nil
}

// fig75 reproduces Figure 7.5: per client, median persistence vs maximum
// prevalence, summarized by quadrant.
func fig75(c *StreamContext) (*Result, error) {
	a := c.analysis()
	if len(a.Points) == 0 {
		return nil, fmt.Errorf("no client points")
	}
	// Quadrant cutoffs: prevalence 0.5 (a client mostly at one AP) and
	// persistence 10 minutes.
	const prevCut, persCut = 0.5, 600.0
	var hh, hl, lh, ll int
	var pers, prev []float64
	for _, p := range a.Points {
		pers = append(pers, p.MedianPersistence)
		prev = append(prev, p.MaxPrevalence)
		switch {
		case p.MaxPrevalence >= prevCut && p.MedianPersistence >= persCut:
			hh++
		case p.MaxPrevalence >= prevCut:
			hl++
		case p.MedianPersistence >= persCut:
			lh++
		default:
			ll++
		}
	}
	res := &Result{Header: []string{"quadrant (prevalence, persistence)", "clients"}}
	res.Rows = append(res.Rows, []string{"high, high (stay put)", itoa(hh)})
	res.Rows = append(res.Rows, []string{"high, low (flap around home AP)", itoa(hl)})
	res.Rows = append(res.Rows, []string{"low, high (slow roamers)", itoa(lh)})
	res.Rows = append(res.Rows, []string{"low, low (rapid switchers)", itoa(ll)})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"prevalence↔persistence Spearman %.2f (paper: positively related; upper-right and lower-left quadrants dominate, lower-right is nearly empty)",
		stats.Spearman(prev, pers)))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"lower-right (high persistence, low prevalence — slow roamers) should be rare: %d of %d", lh, len(a.Points)))
	return res, nil
}
