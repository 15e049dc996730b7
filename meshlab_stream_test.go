package meshlab

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"meshlab/internal/dataset"
	"meshlab/internal/snr"
	"meshlab/internal/wire"
)

// hasFlatSamples reports whether the binary dataset at path carries the
// flat-sample section.
func hasFlatSamples(t *testing.T, path string) bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := wire.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	return rd.HasFlatSamples()
}

// TestLoadOrGenerateFleetUpgradesLegacyCache: a valid cache written in
// the legacy MLF1 framing must hit (no resynthesis) and be rewritten in
// the current format with the flat-sample section, so the next run
// streams the samples.
func TestLoadOrGenerateFleetUpgradesLegacyCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	opts := QuickOptions(31)
	fleet, err := GenerateFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteV1(file, fleet); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	f, hit, err := LoadOrGenerateFleet(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("a valid legacy cache must hit, not resynthesize")
	}
	if f.NumProbeSets() != fleet.NumProbeSets() {
		t.Fatal("legacy cache decoded differently")
	}
	head := make([]byte, 4)
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Read(head); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	if !bytes.Equal(head, wire.Magic2[:]) {
		t.Fatalf("cache not upgraded: magic %q", head)
	}

	// The upgraded cache now carries the samples and still hits.
	if !hasFlatSamples(t, path) {
		t.Fatal("the upgrade rewrite should append the flat-sample section")
	}
	if _, hit, err = LoadOrGenerateFleet(path, opts); err != nil || !hit {
		t.Fatalf("upgraded cache should hit (hit=%v, err=%v)", hit, err)
	}
}

// TestLoadOrGenerateFleetSamplesWarm: the cold write stores the sample
// section; the warm load hits, and the §4 tables a streaming run derives
// from the cached section are byte-identical to flattening the fleet
// from scratch.
func TestLoadOrGenerateFleetSamplesWarm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	opts := QuickOptions(32)
	fleet, hit, err := LoadOrGenerateFleet(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold cache reported a hit")
	}
	if !hasFlatSamples(t, path) {
		t.Fatal("the cold write stored no sample section")
	}
	warm, hit, err := LoadOrGenerateFleet(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm cache missed")
	}
	if warm.NumProbeSets() != fleet.NumProbeSets() {
		t.Fatal("warm load decoded differently")
	}

	// Oracle: the cached section and a from-scratch flatten agree on the
	// §4-heavy experiments, byte for byte.
	streamed, sum, err := StreamFleet(path, StreamOptions{Validate: &opts})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.FlatSamples {
		t.Fatal("the streamed cache did not consume its sample section")
	}
	byID := make(map[string]*Result, len(streamed))
	for _, r := range streamed {
		byID[r.ID] = r
	}
	ids := []string{"fig4.1", "fig4.4", "fig4.5"}
	scratch, _, err := RunFleet(fleet, ids...)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if byID[id].Format() != scratch[i].Format() {
			t.Fatalf("%s differs between the cached section and a from-scratch flatten", id)
		}
	}
}

// TestLoadFleetSamples: SaveFleetWithSamples writes a .bin file that
// carries the sample section and loads back as the same fleet; plain
// binary files carry none, and the section requires a .bin path.
func TestLoadFleetSamples(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(33))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	with := filepath.Join(dir, "with.bin")
	if err := SaveFleetWithSamples(with, fleet); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFleet(with)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumProbeSets() != fleet.NumProbeSets() || !hasFlatSamples(t, with) {
		t.Fatalf("sample-carrying file: %d probe sets, section %v", f.NumProbeSets(), hasFlatSamples(t, with))
	}

	plain := filepath.Join(dir, "plain.bin")
	if err := SaveFleet(plain, fleet); err != nil {
		t.Fatal(err)
	}
	if hasFlatSamples(t, plain) {
		t.Fatal("plain binary should carry no sample section")
	}

	// The section needs the binary format; a JSONL path is rejected.
	if err := SaveFleetWithSamples(filepath.Join(dir, "nope.jsonl"), fleet); err == nil {
		t.Fatal("SaveFleetWithSamples should reject a non-.bin path")
	}
}

// TestStreamFleetMatchesMaterialized is the meshlab-level oracle for the
// streaming suite: the single-pass run over a binary file (with and
// without the flat-sample section) must emit results byte-identical to
// RunFleet over the materialized fleet, and both must report honest
// walk accounting.
func TestStreamFleetMatchesMaterialized(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(34))
	if err != nil {
		t.Fatal(err)
	}
	want, fleetSum, err := RunFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if fleetSum.Networks != len(fleet.Networks) || fleetSum.ProbeSets != fleet.NumProbeSets() ||
		fleetSum.NetworksBG != len(fleet.ByBand("bg")) || fleetSum.NetworksN != len(fleet.ByBand("n")) {
		t.Fatalf("RunFleet summary %+v disagrees with the fleet", fleetSum)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.bin")
	if err := SaveFleet(plain, fleet); err != nil {
		t.Fatal(err)
	}
	sampled := filepath.Join(dir, "sampled.bin")
	if err := SaveFleetWithSamples(sampled, fleet); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path        string
		flatSamples bool
	}{{plain, false}, {sampled, true}} {
		results, sum, err := StreamFleet(tc.path, StreamOptions{Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if len(results) != len(want) {
			t.Fatalf("%s: %d results vs %d", tc.path, len(results), len(want))
		}
		for i := range want {
			if g, w := results[i].Format(), want[i].Format(); g != w {
				t.Fatalf("%s: %s diverged from materialized run:\n--- stream ---\n%s\n--- memory ---\n%s",
					tc.path, want[i].ID, g, w)
			}
		}
		if sum.FlatSamples != tc.flatSamples {
			t.Fatalf("%s: FlatSamples = %v, want %v", tc.path, sum.FlatSamples, tc.flatSamples)
		}
		if sum.Networks != len(fleet.Networks) || sum.ProbeSets != fleet.NumProbeSets() {
			t.Fatalf("%s: summary %d networks/%d probe sets, fleet has %d/%d",
				tc.path, sum.Networks, sum.ProbeSets, len(fleet.Networks), fleet.NumProbeSets())
		}
		if sum.NetworksBG != len(fleet.ByBand("bg")) || sum.NetworksN != len(fleet.ByBand("n")) {
			t.Fatalf("%s: band split %d/%d wrong", tc.path, sum.NetworksBG, sum.NetworksN)
		}
		if sum.MaxLiveNetworks <= 0 || sum.MaxLiveNetworks >= sum.Networks {
			t.Fatalf("%s: max live networks %d of %d — the walk is not bounded", tc.path, sum.MaxLiveNetworks, sum.Networks)
		}
	}
}

// TestStreamFleetValidates: the validating walk accepts a matching cache
// and rejects metadata or topology divergence with ErrCacheMismatch.
func TestStreamFleetValidates(t *testing.T) {
	opts := QuickOptions(35)
	fleet, err := GenerateFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}

	if _, _, err := StreamFleet(path, StreamOptions{Validate: &opts}); err != nil {
		t.Fatalf("matching cache rejected: %v", err)
	}

	wrongSeed := QuickOptions(36)
	if _, _, err := StreamFleet(path, StreamOptions{Validate: &wrongSeed}); !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("mismatched seed: got %v, want ErrCacheMismatch", err)
	}

	wrongFleet := opts
	wrongFleet.Fleet.MinSize += 2
	if _, _, err := StreamFleet(path, StreamOptions{Validate: &wrongFleet}); !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("mismatched topology: got %v, want ErrCacheMismatch", err)
	}
}

// TestStreamFleetNotStreamable: JSON-lines input is rejected with the
// sentinel the CLIs use to fall back (or print guidance).
func TestStreamFleetNotStreamable(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(37))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	if err := SaveFleet(path, fleet); err != nil {
		t.Fatal(err)
	}
	if _, _, err := StreamFleet(path, StreamOptions{}); !errors.Is(err, ErrNotStreamable) {
		t.Fatalf("JSONL: got %v, want ErrNotStreamable", err)
	}
	if _, err := StreamSampleExperiments(path, SampleExperimentIDs(), 1); !errors.Is(err, ErrNotStreamable) {
		t.Fatalf("StreamSampleExperiments on JSONL: got %v, want ErrNotStreamable", err)
	}
}

// TestEachSampleGroupMatchesLoadSamples: the chunked group walk carries
// exactly the samples wire.ReadSamples materializes, per band and in
// order, from both a sample-carrying and a section-less binary file.
func TestEachSampleGroupMatchesLoadSamples(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(39))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sampled := filepath.Join(dir, "sampled.bin")
	if err := SaveFleetWithSamples(sampled, fleet); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.bin")
	if err := SaveFleet(plain, fleet); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{sampled, plain} {
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.ReadSamples(file)
		file.Close()
		if err != nil {
			t.Fatal(err)
		}
		cat := map[string][]snr.Sample{}
		groups := 0
		if err := eachSampleGroup(path, 2, func(band, net string, samples []snr.Sample) error {
			groups++
			for i := range samples {
				if samples[i].Net != net {
					return fmt.Errorf("group %s carries sample for %s", net, samples[i].Net)
				}
			}
			if len(samples) > 0 {
				cat[band] = append(cat[band], samples...)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if groups != len(fleet.Networks) {
			t.Fatalf("%s: %d groups, fleet has %d network datasets", path, groups, len(fleet.Networks))
		}
		if !reflect.DeepEqual(cat, want) {
			t.Fatalf("%s: concatenated groups diverge from wire.ReadSamples", path)
		}
	}
	if err := eachSampleGroup(filepath.Join(dir, "missing.bin"), 1, nil); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestStreamSampleExperimentsMatchesAnalysis: the fleet-less chunked §4
// run (meshanalyze -sec4) reproduces every sample-only table
// byte-identically to RunFleet over the in-memory fleet, at any worker
// count.
func TestStreamSampleExperimentsMatchesAnalysis(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(40))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.bin")
	if err := SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}
	ids := SampleExperimentIDs()
	full, _, err := RunFleet(fleet, ids...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		results, err := StreamSampleExperiments(path, ids, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(ids) {
			t.Fatalf("%d results for %d ids", len(results), len(ids))
		}
		for i, id := range ids {
			if results[i].Format() != full[i].Format() {
				t.Fatalf("workers=%d: %s diverges from the in-memory analysis", workers, id)
			}
		}
	}
	// Fleet-needing experiments are refused up front.
	if _, err := StreamSampleExperiments(path, []string{"fig5.1"}, 1); err == nil {
		t.Fatal("a fleet experiment should be refused by the sample run")
	}
	if _, err := StreamSampleExperiments(path, []string{"fig9.9"}, 1); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("an unknown experiment should be refused as unknown, got %v", err)
	}
}

// waitGoroutines polls until the process is back to at most base
// goroutines, failing with a full stack dump if it is not within a short
// settle: every goroutine a walk starts must be joined by its owner.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s leaked goroutines: %d running, baseline %d\n%s",
				what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWalksJoinGoroutines: a sample-only run that observes no network,
// a StreamFleet aborted by a corrupt network mid-walk, and a sample-group
// walk aborted by its callback each return only after every goroutine
// they started has exited.
func TestWalksJoinGoroutines(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.bin")
	if err := SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	if _, err := StreamSampleExperiments(path, SampleExperimentIDs(), 2); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "a sample-only run", base)

	// Cut the file a little way into the middle network's record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := wire.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	mid := 0
	if err := rd.EachNetwork(wire.Filter{}, func(*dataset.NetworkData) error {
		if mid++; mid == rd.NumNetworks()/2 {
			return errStopWalk
		}
		return nil
	}); !errors.Is(err, errStopWalk) {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.bin")
	if err := os.WriteFile(corrupt, raw[:rd.Offset()+64], 0o644); err != nil {
		t.Fatal(err)
	}
	base = runtime.NumGoroutine()
	if _, _, err := StreamFleet(corrupt, StreamOptions{Workers: 3}); err == nil {
		t.Fatal("a truncated network should fail the walk")
	}
	waitGoroutines(t, "an aborted StreamFleet", base)

	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	rd, err = wire.NewReader(file)
	if err != nil {
		t.Fatal(err)
	}
	base = runtime.NumGoroutine()
	groups := 0
	if err := rd.SampleGroups(3, func(*wire.SampleGroup) error {
		if groups++; groups == 3 {
			return errStopWalk
		}
		return nil
	}); !errors.Is(err, errStopWalk) {
		t.Fatalf("aborted sample-group walk returned %v", err)
	}
	waitGoroutines(t, "an aborted sample-group walk", base)
}

var errStopWalk = errors.New("stop the walk")
