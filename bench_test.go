package meshlab

// The bench harness regenerates every table and figure of the thesis's
// evaluation, one benchmark per artifact (ExperimentIDs lists the index;
// PERF.md records the optimization trajectory). Each iteration runs the
// experiment end to end against a shared quick-scale fleet, so the
// reported ns/op is the cost of regenerating that artifact from raw
// probe/client data: each iteration is a fresh RunFleet walk, which
// derives every per-network routing solution anew.
//
// Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"meshlab/internal/experiments"
	"meshlab/internal/phy"
	"meshlab/internal/rng"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

var benchOnce sync.Once
var benchFleet *Fleet

func benchmarkFleet(b testing.TB) *Fleet {
	benchOnce.Do(func() {
		f, err := GenerateFleet(QuickOptions(20100521)) // thesis submission date
		if err != nil {
			panic(err)
		}
		benchFleet = f
	})
	if benchFleet == nil {
		b.Fatal("no fleet")
	}
	return benchFleet
}

// benchExperiment runs one artifact's regeneration per iteration.
func benchExperiment(b *testing.B, id string) {
	fleet := benchmarkFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunFleet(fleet, id); err != nil {
			b.Fatal(err)
		}
	}
}

// Chapter 3 — the data.

func BenchmarkFig3_1(b *testing.B) { benchExperiment(b, "fig3.1") }

// Chapter 4 — bit rate analysis.

func BenchmarkFig4_1(b *testing.B)   { benchExperiment(b, "fig4.1") }
func BenchmarkFig4_2(b *testing.B)   { benchExperiment(b, "fig4.2") }
func BenchmarkFig4_3(b *testing.B)   { benchExperiment(b, "fig4.3") }
func BenchmarkFig4_4(b *testing.B)   { benchExperiment(b, "fig4.4") }
func BenchmarkFig4_5(b *testing.B)   { benchExperiment(b, "fig4.5") }
func BenchmarkFig4_6(b *testing.B)   { benchExperiment(b, "fig4.6") }
func BenchmarkTable4_1(b *testing.B) { benchExperiment(b, "tab4.1") }

// Chapter 5 — opportunistic routing.

func BenchmarkFig5_1(b *testing.B) { benchExperiment(b, "fig5.1") }
func BenchmarkFig5_2(b *testing.B) { benchExperiment(b, "fig5.2") }
func BenchmarkFig5_3(b *testing.B) { benchExperiment(b, "fig5.3") }
func BenchmarkFig5_4(b *testing.B) { benchExperiment(b, "fig5.4") }
func BenchmarkFig5_5(b *testing.B) { benchExperiment(b, "fig5.5") }

// Chapter 6 — hidden triples.

func BenchmarkFig6_1(b *testing.B) { benchExperiment(b, "fig6.1") }
func BenchmarkFig6_2(b *testing.B) { benchExperiment(b, "fig6.2") }
func BenchmarkSec6_3(b *testing.B) { benchExperiment(b, "sec6.3") }

// Chapter 7 — mobility.

func BenchmarkFig7_1(b *testing.B) { benchExperiment(b, "fig7.1") }
func BenchmarkFig7_2(b *testing.B) { benchExperiment(b, "fig7.2") }
func BenchmarkFig7_3(b *testing.B) { benchExperiment(b, "fig7.3") }
func BenchmarkFig7_4(b *testing.B) { benchExperiment(b, "fig7.4") }
func BenchmarkFig7_5(b *testing.B) { benchExperiment(b, "fig7.5") }

// Ablations — design-choice validation (see the internal/experiments
// ablation runners).

func BenchmarkAblationOffsets(b *testing.B)   { benchExperiment(b, "abl4.off") }
func BenchmarkAblationBursts(b *testing.B)    { benchExperiment(b, "abl4.burst") }
func BenchmarkAblationSymmetry(b *testing.B)  { benchExperiment(b, "abl5.sym") }
func BenchmarkAblationThreshold(b *testing.B) { benchExperiment(b, "abl6.t") }

// Extensions — ETT routing and MAC-level hidden-terminal cost.

func BenchmarkExtTopK(b *testing.B) { benchExperiment(b, "ext4.topk") }
func BenchmarkExtETT(b *testing.B)  { benchExperiment(b, "ext5.ett") }
func BenchmarkExtMAC(b *testing.B)  { benchExperiment(b, "ext6.mac") }

// End-to-end substrate costs.

// BenchmarkGenerateQuick measures fleet synthesis at several worker-pool
// sizes; the output is byte-identical at all of them (pinned by
// synth.TestGenerateParallelMatchesSerial), so the sub-benchmarks differ
// only in wall clock.
func BenchmarkGenerateQuick(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := QuickOptions(20100521)
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := GenerateFleet(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// §4 hot-path microbenchmarks over the shared quick fleet's b/g samples.

func benchSamplesBG(b *testing.B) []snr.Sample {
	samples, err := snr.Flatten(benchmarkFleet(b).ByBand("bg"))
	if err != nil {
		b.Fatal(err)
	}
	if len(samples) == 0 {
		b.Fatal("no b/g samples")
	}
	return samples
}

func BenchmarkFlatten(b *testing.B) {
	nets := benchmarkFleet(b).ByBand("bg")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snr.Flatten(nets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPenalty(b *testing.B) {
	samples := benchSamplesBG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snr.Penalty(samples, len(phy.BandBG.Rates), snr.Scopes)
	}
}

func BenchmarkThroughputVsSNR(b *testing.B) {
	samples := benchSamplesBG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snr.ThroughputVsSNR(samples, len(phy.BandBG.Rates), 25)
	}
}

func BenchmarkCoverage(b *testing.B) {
	samples := benchSamplesBG(b)
	tbl := snr.Train(samples, len(phy.BandBG.Rates), snr.Link)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Coverage(8)
	}
}

// streamingDataset writes the shared bench fleet (with the flat-sample
// section) to a temp file for the streaming-suite benchmarks and tests.
func streamingDataset(b testing.TB) string {
	path := filepath.Join(b.TempDir(), "fleet.bin")
	if err := SaveFleetWithSamples(path, benchmarkFleet(b)); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkRunAllStreaming is the full suite through the single-pass
// streaming walk of a dataset file (decode + derive + finalize per
// iteration), the -dataset path.
func BenchmarkRunAllStreaming(b *testing.B) {
	path := streamingDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := StreamFleet(path, StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec4ChunkedPeakHeap runs the §4 sample-only population the
// -sec4 way — chunked sample groups through incremental accumulators —
// sampling the live heap mid-walk. The reported peak-live-B metric is
// the path's memory bound: count/histogram tables plus one in-flight
// group, independent of sample count.
func BenchmarkSec4ChunkedPeakHeap(b *testing.B) {
	path := streamingDataset(b)
	ids := SampleExperimentIDs()
	var peak uint64
	for i := 0; i < b.N; i++ {
		base := liveHeap()
		run, err := experiments.NewStreamContextFor(2, ids)
		if err != nil {
			b.Fatal(err)
		}
		run.DeferSamples()
		groups := 0
		err = eachSampleGroup(path, 2, func(band, _ string, samples []snr.Sample) error {
			if err := run.ObserveSampleGroup(band, samples); err != nil {
				return err
			}
			groups++
			if groups%5 == 0 {
				if h := liveHeap() - base; h > peak {
					peak = h
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		run.FinishSamples()
		results, err := run.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if h := liveHeap() - base; h > peak {
			peak = h
		}
		runtime.KeepAlive(results)
	}
	b.ReportMetric(float64(peak), "peak-live-B")
}

// liveHeap forces a full collection and returns the surviving heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamingDoesNotMaterializeFleet pins the streamed path's memory
// contract three ways: structurally (the pipeline never held more than
// its bounded window of decoded networks), by heap sample against the
// materialized fleet, and — for the chunked §4 path — by heap sample
// against the materialized flat samples: a streamed run must leave far
// less live than either, or the walk (or the sample-group plumbing) is
// retaining what it claims to release.
func TestStreamingDoesNotMaterializeFleet(t *testing.T) {
	path := streamingDataset(t)

	// Warm the process-wide caches (the ablation experiments memoize their
	// own small fleets) so the measured delta is the run's working state,
	// not one-time process state.
	if _, _, err := StreamFleet(path, StreamOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	base := int64(liveHeap())
	results, sum, err := StreamFleet(path, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	afterStream := int64(liveHeap())

	fleet, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	afterLoad := int64(liveHeap())

	samples := make(map[string][]snr.Sample, 2)
	for _, band := range []string{"bg", "n"} {
		if samples[band], err = snr.Flatten(fleet.ByBand(band)); err != nil {
			t.Fatal(err)
		}
	}
	afterSamples := int64(liveHeap())

	if sum.MaxLiveNetworks >= sum.Networks || sum.MaxLiveNetworks > 2+2 {
		t.Fatalf("streamed walk held %d of %d networks at once; the window should be ≤ workers+2",
			sum.MaxLiveNetworks, sum.Networks)
	}
	// At least one group per network dataset; huge networks may stream as
	// several link-aligned sub-chunks (wire.SampleGroups).
	if sum.SampleGroups < sum.Networks {
		t.Fatalf("streamed %d sample groups for %d network datasets; the section stores at least one per network",
			sum.SampleGroups, sum.Networks)
	}
	streamBytes := afterStream - base
	fleetBytes := afterLoad - afterStream
	samplesBytes := afterSamples - afterLoad
	if fleetBytes < 1<<20 {
		t.Fatalf("materialized fleet only added %d live bytes; the heap comparison is meaningless", fleetBytes)
	}
	if streamBytes >= fleetBytes {
		t.Fatalf("streamed run left %d bytes live, not less than the %d-byte materialized fleet — is the walk retaining networks?",
			streamBytes, fleetBytes)
	}
	if samplesBytes < 1<<18 {
		t.Fatalf("materialized samples only added %d live bytes; the chunked comparison is meaningless", samplesBytes)
	}
	if streamBytes >= samplesBytes {
		t.Fatalf("streamed run left %d bytes live, not less than the %d-byte materialized samples — is the chunked §4 path retaining sample groups?",
			streamBytes, samplesBytes)
	}
	t.Logf("live heap: streamed suite %d KB vs materialized fleet %d KB vs materialized samples %d KB (window %d/%d networks, %d sample groups)",
		streamBytes>>10, fleetBytes>>10, samplesBytes>>10, sum.MaxLiveNetworks, sum.Networks, sum.SampleGroups)
	runtime.KeepAlive(results)
	runtime.KeepAlive(fleet)
	runtime.KeepAlive(samples)
}

// TestStreamingBenchFixture keeps the bench fixture honest: the dataset
// the streaming benchmark walks must round-trip the bench fleet.
func TestStreamingBenchFixture(t *testing.T) {
	path := streamingDataset(t)
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("bench dataset not written: %v", err)
	}
	f, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumProbeSets() != benchmarkFleet(t).NumProbeSets() {
		t.Fatal("bench dataset decoded differently from the bench fleet")
	}
}

// Routing hot-path microbenchmarks (the §5 core the experiment suite
// leans on; see PERF.md for the before/after trajectory).

// benchMatrix builds a deterministic sparse 50-node success matrix with
// mild asymmetry, the shape SuccessMatrices produces for a large network.
func benchMatrix() routing.Matrix {
	const n = 50
	r := rng.New(7)
	m := routing.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(0.3) {
				continue // out of radio range
			}
			base := 0.1 + 0.85*r.Float64()
			m.Set(i, j, base)
			m.Set(j, i, base*0.9)
		}
	}
	return m
}

func BenchmarkAllPairs(b *testing.B) {
	m := benchMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = routing.AllPairs(m, routing.ETX1)
	}
}

func BenchmarkExORToDest(b *testing.B) {
	m := benchMatrix()
	etx := routing.AllPairs(m, routing.ETX1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = routing.ExORToDest(m, etx, 0)
	}
}
