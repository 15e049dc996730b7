package synth

import (
	"bytes"
	"sync/atomic"
	"testing"

	"meshlab/internal/radio"
	"meshlab/internal/wire"
)

func TestGenerateQuick(t *testing.T) {
	f, err := Generate(Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// 12 networks, one of which is dual-band → 13 network datasets.
	if len(f.Networks) != 13 {
		t.Fatalf("got %d network datasets, want 13", len(f.Networks))
	}
	if len(f.Clients) != 12 {
		t.Fatalf("got %d client datasets, want 12", len(f.Clients))
	}
	if f.NumProbeSets() == 0 {
		t.Fatal("no probe sets generated")
	}
	if got := len(f.ByBand("n")); got != 3 {
		t.Fatalf("%d 802.11n datasets, want 3", got)
	}
	if f.Meta.Seed != 1 || f.Meta.ProbeInterval != 300 {
		t.Fatalf("meta wrong: %+v", f.Meta)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(Quick(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Quick(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumProbeSets() != b.NumProbeSets() {
		t.Fatalf("probe set counts differ: %d vs %d", a.NumProbeSets(), b.NumProbeSets())
	}
	if len(a.Networks) != len(b.Networks) {
		t.Fatal("network counts differ")
	}
	for i := range a.Networks {
		if len(a.Networks[i].Links) != len(b.Networks[i].Links) {
			t.Fatalf("network %d link counts differ", i)
		}
	}
	for i := range a.Clients {
		if len(a.Clients[i].Clients) != len(b.Clients[i].Clients) {
			t.Fatalf("network %d client counts differ", i)
		}
	}
}

// TestGenerateParallelMatchesSerial pins the parallel fan-out to the
// serial path at the byte level: the wire encodings must be identical, so
// no table or figure can depend on the worker count.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	encode := func(workers int) []byte {
		opts := Quick(11)
		opts.Workers = workers
		f, err := Generate(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := wire.Write(&buf, f); err != nil {
			t.Fatalf("workers=%d: encode: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	for _, workers := range []int{4, 0} {
		if got := encode(workers); !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d produced a different fleet than the serial path (%d vs %d bytes)",
				workers, len(got), len(serial))
		}
	}
}

func TestOptionsMetaMatchesGenerated(t *testing.T) {
	opts := Quick(6)
	f, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta != opts.Meta() {
		t.Fatalf("Options.Meta %+v differs from generated meta %+v", opts.Meta(), f.Meta)
	}
	// Zero-valued sub-configs must resolve to the same defaults Generate
	// applies.
	ref := Reference(6)
	if m := ref.Meta(); m.ProbeDuration != 86400 || m.ProbeInterval != 1200 || m.ClientDuration != 39600 {
		t.Fatalf("reference meta defaults wrong: %+v", m)
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(Quick(1))
	b, _ := Generate(Quick(2))
	if a.NumProbeSets() == b.NumProbeSets() && len(a.Networks[0].Links) == len(b.Networks[0].Links) {
		// Extremely unlikely to match on both counts with different
		// fleets; treat as suspicious.
		t.Log("warning: seeds 1 and 2 produced identical summary counts")
	}
}

func TestSkipClients(t *testing.T) {
	opts := Quick(3)
	opts.SkipClients = true
	f, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clients) != 0 {
		t.Fatal("SkipClients should omit client data")
	}
}

func TestRadioParamsOverride(t *testing.T) {
	opts := Quick(4)
	var calls atomic.Int32 // networks build in parallel
	opts.RadioParams = func(outdoor bool) radio.Params {
		calls.Add(1)
		p := radio.DefaultParams(radio.Indoor)
		p.DisableOffsets = true
		return p
	}
	if _, err := Generate(opts); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("RadioParams override never used")
	}
}

func TestGenerateBadFleetConfig(t *testing.T) {
	opts := Quick(5)
	opts.Fleet.NumIndoor = 99
	if _, err := Generate(opts); err == nil {
		t.Fatal("inconsistent fleet config should error")
	}
}

func TestReferenceShape(t *testing.T) {
	opts := Reference(9)
	if opts.Fleet.NumNetworks != 110 {
		t.Fatalf("reference fleet has %d networks", opts.Fleet.NumNetworks)
	}
	if opts.Probe.Duration != 86400 {
		t.Fatalf("reference probe duration %v", opts.Probe.Duration)
	}
}

func TestCacheValidatable(t *testing.T) {
	if !Quick(1).CacheValidatable() || !Reference(1).CacheValidatable() {
		t.Fatal("presets must be cache-validatable")
	}
	o := Quick(1)
	o.Probe.ProbesPerRate = 40
	if o.CacheValidatable() {
		t.Fatal("non-default ProbesPerRate is not recorded in a cache and must not validate")
	}
	o = Quick(1)
	o.Clients.WalkerFrac = 0.5
	if o.CacheValidatable() {
		t.Fatal("non-default client mixture must not validate")
	}
	// Fractional durations collide with their int32-truncated Meta.
	o = Quick(1)
	o.Probe.ReportInterval = 300.9
	if o.CacheValidatable() {
		t.Fatal("fractional cadence must not validate against whole-second Meta")
	}
	o = Quick(1)
	o.RadioParams = func(bool) radio.Params { return radio.DefaultParams(radio.Indoor) }
	if o.CacheValidatable() {
		t.Fatal("RadioParams override must not validate")
	}
}

func TestCacheValidatableRejectsOutOfRangeDurations(t *testing.T) {
	o := Quick(1)
	o.Probe.Duration = 3e9 // beyond int32 seconds: Meta would truncate
	if o.CacheValidatable() {
		t.Fatal("durations beyond int32 must not validate against a cache")
	}
}
