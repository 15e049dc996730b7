package snr

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"meshlab/internal/binio"
)

// splitShards partitions samples into k contiguous shards aligned on
// network boundaries — the shard contract snapshot.go documents. Shards
// may be empty when k exceeds the network count.
func splitShards(t testing.TB, samples []Sample, k int) [][]Sample {
	t.Helper()
	var bounds []int // group start indices
	for i := 0; i < len(samples); {
		bounds = append(bounds, i)
		j := i + 1
		for j < len(samples) && samples[j].Net == samples[i].Net {
			j++
		}
		i = j
	}
	groups := len(bounds)
	if groups < 2 {
		t.Fatalf("only %d sample groups; shard oracles need a multi-network fixture", groups)
	}
	bounds = append(bounds, len(samples))
	shards := make([][]Sample, k)
	for s := 0; s < k; s++ {
		lo, hi := s*groups/k, (s+1)*groups/k
		shards[s] = samples[bounds[lo]:bounds[hi]]
	}
	return shards
}

// fold merges src into dst the way the shard runner does: encode src
// with its snapshot writer, then restore the bytes into dst.
func fold(t testing.TB, dst, src chunkCore) {
	t.Helper()
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(&buf); err != nil {
		t.Fatal(err)
	}
}

// mergeShards feeds each shard into its own accumulator, then folds them
// all into a fresh one in shard order — the shard runner's gather step.
func mergeShards[T chunkCore](t testing.TB, shards [][]Sample, mk func() T) T {
	t.Helper()
	dst := mk()
	for _, shard := range shards {
		acc := mk()
		_ = ForEachSampleGroup(shard, func(g []Sample) error {
			acc.ObserveGroup(g)
			return nil
		})
		fold(t, dst, acc)
	}
	return dst
}

// materializeEqualNaN compares materialized distributions treating NaN as
// equal to NaN (reflect.DeepEqual already does, but keep the oracle
// explicit about element order).
func materializeEqualNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestPenaltyAccumMerge is the shard-vs-whole oracle for the penalty
// core: per-shard accumulators merged in shard order must reproduce the
// whole-input run bit for bit, for every scope, at several shard counts,
// with shards fed both whole-network groups and link-aligned sub-chunks
// (the latter exercises merging while Network/AP banking state is live).
func TestPenaltyAccumMerge(t *testing.T) {
	samples := simulated(t)
	whole := NewPenaltyAccum(7, Scopes)
	feedGroups(t, samples, whole.ObserveGroup)
	want := whole.Finalize()

	for _, k := range []int{1, 2, 3, 9} {
		shards := splitShards(t, samples, k)
		merged := mergeShards(t, shards,
			func() *PenaltyAccum { return NewPenaltyAccum(7, Scopes) })
		if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged penalty diverges from whole run", k)
		}
	}

	// Sub-chunked shards: a shard's networks arrive as many link-aligned
	// chunks, so the fold sees held/banked state flushed by finishNet.
	shards := splitShards(t, samples, 3)
	dst := NewPenaltyAccum(7, Scopes)
	for _, shard := range shards {
		acc := NewPenaltyAccum(7, Scopes)
		if len(shard) > 0 {
			feedLinkChunks(t, shard, 16, acc.ObserveGroup)
		}
		fold(t, dst, acc)
	}
	if got := dst.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("sub-chunked sharded penalty diverges from whole run")
	}

	// Empty-partial identity.
	lone := NewPenaltyAccum(7, Scopes)
	feedGroups(t, samples, lone.ObserveGroup)
	fold(t, lone, NewPenaltyAccum(7, Scopes))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("folding an empty partial changed the penalty result")
	}
}

func TestCoverageAccumMerge(t *testing.T) {
	samples := simulated(t)
	for _, sc := range Scopes {
		for _, minObs := range []int{1, 8} {
			want := Train(samples, 7, sc).Coverage(minObs)
			for _, k := range []int{1, 2, 4} {
				merged := mergeShards(t, splitShards(t, samples, k),
					func() *CoverageAccum { return NewCoverageAccum(7, sc, minObs) })
				if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/minObs=%d/k=%d: merged coverage diverges", sc, minObs, k)
				}
			}
			// Empty-partial identity.
			lone := NewCoverageAccum(7, sc, minObs)
			feedGroups(t, samples, lone.ObserveGroup)
			fold(t, lone, NewCoverageAccum(7, sc, minObs))
			if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: folding an empty partial changed the coverage result", sc)
			}
		}
	}
}

func TestTputAccumMerge(t *testing.T) {
	samples := simulated(t)
	want := ThroughputVsSNR(samples, 7, 25)
	for _, k := range []int{1, 3} {
		merged := mergeShards(t, splitShards(t, samples, k),
			func() *TputAccum { return NewTputAccum(7, 25) })
		if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged throughput-vs-SNR diverges", k)
		}
	}
	lone := NewTputAccum(7, 25)
	feedGroups(t, samples, lone.ObserveGroup)
	fold(t, lone, NewTputAccum(7, 25))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("folding an empty partial changed the tput result")
	}
}

func TestRateSetAccumMerge(t *testing.T) {
	samples := simulated(t)
	want := OptimalRateSets(samples)
	merged := mergeShards(t, splitShards(t, samples, 3),
		func() *RateSetAccum { return NewRateSetAccum() })
	if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged rate sets diverge from batch")
	}
	lone := NewRateSetAccum()
	feedGroups(t, samples, lone.ObserveGroup)
	fold(t, lone, NewRateSetAccum())
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("folding an empty partial changed the rate sets")
	}
}

func TestStrategyAccumMerge(t *testing.T) {
	samples := simulated(t)
	want := ReplayStrategies(samples, 7, 35)
	merged := mergeShards(t, splitShards(t, samples, 3),
		func() *StrategyAccum { return NewStrategyAccum(7, 35) })
	if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged strategy replay diverges from batch")
	}
	lone := NewStrategyAccum(7, 35)
	feedGroups(t, samples, lone.ObserveGroup)
	fold(t, lone, NewStrategyAccum(7, 35))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("folding an empty partial changed the strategy result")
	}
}

func TestTopKAccumMerge(t *testing.T) {
	samples := simulated(t)
	ks := []int{1, 2, 3}
	want := TopKCoverage(samples, 7, Link, ks)
	merged := mergeShards(t, splitShards(t, samples, 4),
		func() *TopKAccum { return NewTopKAccum(7, ks) })
	if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged top-k coverage diverges from batch")
	}
	lone := NewTopKAccum(7, ks)
	feedGroups(t, samples, lone.ObserveGroup)
	fold(t, lone, NewTopKAccum(7, ks))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("folding an empty partial changed the top-k result")
	}
}

// TestFoldFlushesReceiverPendingNetwork: a receiver still holds its
// last network at Network and AP scope when the next shard folds in —
// held back whole when it arrived as one chunk, banking when it arrived
// as link-aligned sub-chunks. The fold must complete that network first,
// as Snapshot does; resetting the boundary state without the flush would
// drop it.
func TestFoldFlushesReceiverPendingNetwork(t *testing.T) {
	samples := simulated(t)
	shards := splitShards(t, samples, 3)
	wholeNets := func(shard []Sample, fn func([]Sample)) {
		_ = ForEachSampleGroup(shard, func(g []Sample) error {
			fn(g)
			return nil
		})
	}
	subChunks := func(shard []Sample, fn func([]Sample)) { feedLinkChunks(t, shard, 16, fn) }
	scopes := []Scope{Network, AP}
	for name, feed := range map[string]func([]Sample, func([]Sample)){"held": wholeNets, "banking": subChunks} {
		receive := func(mk func() chunkCore) chunkCore {
			dst := mk()
			feed(shards[0], dst.ObserveGroup)
			for _, shard := range shards[1:] {
				src := mk()
				feed(shard, src.ObserveGroup)
				fold(t, dst, src)
			}
			return dst
		}

		whole := NewPenaltyAccum(7, scopes)
		feedGroups(t, samples, whole.ObserveGroup)
		pen := receive(func() chunkCore { return NewPenaltyAccum(7, scopes) }).(*PenaltyAccum)
		if got, want := pen.Finalize(), whole.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: penalty receiver's pending network lost in the fold", name)
		}
		for _, sc := range scopes {
			want := Train(samples, 7, sc).Coverage(1)
			cov := receive(func() chunkCore { return NewCoverageAccum(7, sc, 1) }).(*CoverageAccum)
			if got := cov.Finalize(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: coverage/%v receiver's pending network lost in the fold", name, sc)
			}
		}
	}
}

// TestTableMerge folds per-shard tables through writeTable/readTable.
func TestTableMerge(t *testing.T) {
	samples := simulated(t)
	for _, sc := range Scopes {
		want := Train(samples, 7, sc)
		shards := splitShards(t, samples, 3)
		merged := &Table{Scope: sc, NumRates: 7, counts: make(map[instKey]map[int][]int)}
		for _, shard := range shards {
			var buf bytes.Buffer
			bw := binio.NewWriter(&buf)
			writeTable(bw, Train(shard, 7, sc))
			if err := bw.Err(); err != nil {
				t.Fatal(err)
			}
			if err := readTable(binio.NewReader(&buf), merged); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(merged.counts, want.counts) {
			t.Fatalf("%v: merged table diverges from whole-train", sc)
		}
	}
}
