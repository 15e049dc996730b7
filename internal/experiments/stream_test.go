package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/hidden"
	"meshlab/internal/routing"
)

// runFleet pushes a materialized fleet through a StreamContext over ids
// the way a wire.Reader walk would, flattening the §4 samples off the
// walk, and returns the finalized results.
func runFleet(f *dataset.Fleet, workers int, ids ...string) ([]*Result, error) {
	sc, err := NewStreamContextFor(workers, ids)
	if err != nil {
		return nil, err
	}
	for _, nd := range f.Networks {
		if err := sc.Observe(nd); err != nil {
			sc.Finalize() // joins the pipeline; the Observe error wins
			return nil, err
		}
	}
	sc.SetClients(f.Clients)
	return sc.Finalize()
}

// streamRun is runFleet over every experiment, failing the test on error.
func streamRun(t *testing.T, f *dataset.Fleet, workers int) []*Result {
	t.Helper()
	results, err := runFleet(f, workers, IDs()...)
	if err != nil {
		t.Fatal(err)
	}
	return results
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
// protocol, surfaces a deferred-but-never-primed sample section, and
// refuses to merge contexts built over different experiments.
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

	// DeferSamples with no sample groups: the §4 experiments must fail
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

	a := NewStreamContext(1)
	b, err := NewStreamContextFor(1, SampleIDs())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge across different experiment sets should error")
	}
}

// TestHiddenCensusParallelOracle: the §6 censuses the pipeline derives
// on its workers — several networks in flight at once — must agree
// exactly, at any pool size, with the serial package-level census.
func TestHiddenCensusParallelOracle(t *testing.T) {
	f := quickFleet(t)
	serial, err := hidden.AnalyzeAll(f.ByBand("bg"), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 5} {
		sc, err := NewStreamContextFor(workers, []string{"fig6.1"})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range f.Networks {
			if err := sc.Observe(nd); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := sc.accs[0].(*fig61Acc).results; !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: pipeline censuses diverge from hidden.AnalyzeAll", workers)
		}
	}
}

// TestSampleIDs: the sample-only population is exactly the §4 artifacts
// plus the §4.5 extension, and runs on a fleet-less context fed only the
// sample groups, byte-identically to a walk of the full fleet.
func TestSampleIDs(t *testing.T) {
	want := []string{"fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "tab4.1", "ext4.topk"}
	if got := SampleIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SampleIDs = %v, want %v", got, want)
	}
	if SampleOnly("fig5.1") || SampleOnly("nope") {
		t.Fatal("fig5.1 and unknown IDs must not be sample-only")
	}

	f := quickFleet(t)
	full, err := runFleet(f, 2, SampleIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewStreamContextFor(2, SampleIDs())
	if err != nil {
		t.Fatal(err)
	}
	bare.DeferSamples()
	for _, g := range bandGroups(t, f) {
		if err := bare.ObserveSampleGroup(g.band, g.samples); err != nil {
			t.Fatal(err)
		}
	}
	bare.FinishSamples()
	got, err := bare.Finalize()
	if err != nil {
		t.Fatalf("sample-only context: %v", err)
	}
	for i, id := range SampleIDs() {
		if got[i].ID != id || got[i].Format() != full[i].Format() {
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
