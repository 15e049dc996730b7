package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/hidden"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

// streamRun pushes a materialized fleet through a StreamContext the way a
// wire.Reader walk would, returning the finalized results.
func streamRun(t *testing.T, f *dataset.Fleet, workers int, prime bool) []*Result {
	t.Helper()
	sc := NewStreamContext(workers)
	if prime {
		sc.DeferSamples()
	}
	for _, nd := range f.Networks {
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	sc.SetClients(f.Clients)
	if prime {
		for _, band := range []string{"bg", "n"} {
			samples, err := snr.Flatten(f.ByBand(band))
			if err != nil {
				t.Fatal(err)
			}
			sc.PrimeSamples(band, samples)
		}
	}
	results, err := sc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestStreamMatchesContext is the suite-level oracle: a streaming run
// must emit byte-identical results to the materialized parallel runner,
// at any pipeline width, with samples flattened incrementally or primed.
func TestStreamMatchesContext(t *testing.T) {
	f := quickFleet(t)
	want, err := NewContext(f).RunAllParallel(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		workers int
		prime   bool
	}{
		{"serial", 1, false},
		{"parallel", 4, false},
		{"parallel-primed", 3, true},
	} {
		got := streamRun(t, f, cfg.workers, cfg.prime)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results vs %d", cfg.name, len(got), len(want))
		}
		for i := range want {
			if g, w := got[i].Format(), want[i].Format(); g != w {
				t.Fatalf("%s: %s diverged from the materialized run:\n--- stream ---\n%s\n--- context ---\n%s",
					cfg.name, want[i].ID, g, w)
			}
		}
	}
}

// TestStreamBoundedInFlight pins the memory contract: the pipeline never
// holds more than a bounded window of networks regardless of fleet size.
func TestStreamBoundedInFlight(t *testing.T) {
	f := quickFleet(t)
	sc := NewStreamContext(2)
	for _, nd := range f.Networks {
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	sc.SetClients(f.Clients)
	if _, err := sc.Finalize(); err != nil {
		t.Fatal(err)
	}
	networks, maxInFlight := sc.Stats()
	if networks != len(f.Networks) {
		t.Fatalf("observed %d networks, fleet has %d", networks, len(f.Networks))
	}
	// Channel capacity (workers) + the job being collected + the one being
	// submitted.
	if bound := 2 + 2; maxInFlight > bound {
		t.Fatalf("max in-flight networks %d exceeds pipeline bound %d", maxInFlight, bound)
	}
	if maxInFlight >= len(f.Networks) {
		t.Fatalf("pipeline held the whole fleet (%d networks) at once", maxInFlight)
	}
}

// TestStreamLifecycleErrors: the context enforces its single-use walk
// protocol and surfaces a deferred-but-never-primed sample section.
func TestStreamLifecycleErrors(t *testing.T) {
	f := quickFleet(t)

	sc := NewStreamContext(1)
	if _, err := sc.Finalize(); err == nil {
		t.Fatal("an empty walk should fail (experiments see no data)")
	}
	if err := sc.Observe(f.Networks[0]); err == nil {
		t.Fatal("Observe after Finalize should error")
	}
	if _, err := sc.Finalize(); err == nil {
		t.Fatal("double Finalize should error")
	}

	// DeferSamples with no PrimeSamples: the §4 experiments must fail
	// loudly instead of silently running on zero samples.
	sc = NewStreamContext(1)
	sc.DeferSamples()
	for _, nd := range f.Networks {
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	sc.SetClients(f.Clients)
	if _, err := sc.Finalize(); err == nil {
		t.Fatal("deferred-but-unprimed samples should fail Finalize")
	}
}

// TestHiddenCensusParallelOracle: the context's §6 scan — which fans
// every b/g network across the worker bound on the first census request —
// must agree exactly, at any pool size, with the serial package-level
// census.
func TestHiddenCensusParallelOracle(t *testing.T) {
	f := quickFleet(t)
	nets := f.ByBand("bg")
	serial, err := hidden.AnalyzeAll(nets, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int32{1, 5} {
		ctx := NewContext(f)
		ctx.workers.Store(workers)
		for i, nd := range nets {
			nr, err := ctx.netHidden(nd, 0.10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(nr, serial[i]) {
				t.Fatalf("workers=%d: context census for %s diverges from hidden.AnalyzeAll", workers, nd.Info.Name)
			}
		}
	}
}

// TestSampleIDs: the sample-only population is exactly the §4 artifacts
// plus the §4.5 extension, and runs against a fleet-less context primed
// with samples.
func TestSampleIDs(t *testing.T) {
	want := []string{"fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "tab4.1", "ext4.topk"}
	if got := SampleIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SampleIDs = %v, want %v", got, want)
	}
	if SampleOnly("fig5.1") || SampleOnly("nope") {
		t.Fatal("fig5.1 and unknown IDs must not be sample-only")
	}

	f := quickFleet(t)
	full := NewContext(f)
	bare := NewContext(&dataset.Fleet{})
	for _, band := range []string{"bg", "n"} {
		samples, err := snr.Flatten(f.ByBand(band))
		if err != nil {
			t.Fatal(err)
		}
		bare.PrimeSamples(band, samples)
	}
	for _, id := range SampleIDs() {
		a, err := bare.Run(id)
		if err != nil {
			t.Fatalf("%s on a sample-only context: %v", id, err)
		}
		b, err := full.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if a.Format() != b.Format() {
			t.Fatalf("%s diverges between sample-only and full context", id)
		}
	}
}

// TestImprovementSweepBudgetOracle: the per-network improvement sweep
// fans its (rate, variant) calls across the worker budget; the assembled
// comparisons must be byte-identical at budget 1 and 4, and equal to the
// plain serial loop over every pair.
func TestImprovementSweepBudgetOracle(t *testing.T) {
	defer conc.SetBudget(0)
	var largest *dataset.NetworkData
	for _, nd := range quickFleet(t).ByBand("bg") {
		if largest == nil || len(nd.Info.APs) > len(largest.Info.APs) {
			largest = nd
		}
	}
	ms, err := routing.SuccessMatrices(largest)
	if err != nil {
		t.Fatal(err)
	}
	render := func(imps map[impKey][]routing.PairResult) string {
		return fmt.Sprintf("%v", imps) // fmt prints map keys sorted
	}
	want := make(map[impKey][]routing.PairResult)
	for _, v := range []routing.Variant{routing.ETX1, routing.ETX2} {
		for ri, m := range ms {
			want[impKey{rate: ri, variant: v}] = routing.Improvements(m, v)
		}
	}
	for _, budget := range []int{1, 4} {
		conc.SetBudget(budget)
		if got := render(improvementSweep(ms)); got != render(want) {
			t.Fatalf("improvement sweep at budget %d diverges from the serial loop", budget)
		}
	}
}
