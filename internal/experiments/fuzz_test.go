package experiments

import (
	"bytes"
	"strings"
	"testing"

	"meshlab/internal/binio"
	"meshlab/internal/dataset"
	"meshlab/internal/snr"
)

// FuzzStreamRestore drives StreamContext.Restore with mutated snapshots.
// Every accumulator decoder both resumes checkpoints and folds shard
// partials, so this is the robustness check on all of them: Restore
// into a fresh context never panics, every error carries the package
// context, and once the envelope is intact any error names the
// experiment whose section failed.
//
// Seeds are quick-fleet snapshots: an empty context, one mid-walk, and
// one mid-way through a deferred sample phase. The walks cover the
// fleet's smallest routable b/g and n networks, cut to the links among
// their first five APs and one probe set per link: that populates every
// accumulator section while keeping the seeds small enough for the
// fuzzer to mutate and minimize quickly.
func FuzzStreamRestore(f *testing.F) {
	var nets []*dataset.NetworkData
	for _, band := range []string{"bg", "n"} {
		var pick *dataset.NetworkData
		for _, nd := range quickFleet(f).ByBand(band) {
			if nd.NumAPs() >= 5 && (pick == nil || nd.NumAPs() < pick.NumAPs()) {
				pick = nd
			}
		}
		cut := &dataset.NetworkData{Info: pick.Info}
		for _, l := range pick.Links {
			if l.From < 5 && l.To < 5 {
				cl := *l
				cl.Sets = cl.Sets[:min(len(cl.Sets), 1)]
				cut.Links = append(cut.Links, &cl)
			}
		}
		nets = append(nets, cut)
	}
	snapshot := func(sc *StreamContext) []byte {
		var buf bytes.Buffer
		if err := sc.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(snapshot(NewStreamContext(1)))

	walk := NewStreamContext(1)
	samples := NewStreamContext(1)
	samples.DeferSamples()
	for _, sc := range []*StreamContext{walk, samples} {
		for _, nd := range nets {
			if err := sc.Observe(nd); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Add(snapshot(walk))
	group, err := snr.Flatten(nets[:1])
	if err != nil {
		f.Fatal(err)
	}
	if err := samples.ObserveSampleGroup(nets[0].Info.Band, group); err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot(samples))
	walk.Drain()
	samples.Drain()

	ids := IDs()
	f.Fuzz(func(t *testing.T, data []byte) {
		err := NewStreamContext(1).Restore(bytes.NewReader(data))
		if err == nil {
			return
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "experiments: ") {
			t.Fatalf("restore error without package context: %v", err)
		}
		r := binio.NewReader(bytes.NewReader(data))
		version, networks, _, n := r.U8(), r.Int(), r.Bool(), r.Int()
		if r.Err() != nil || version != streamSnapVersion || networks < 0 || n != len(ids) {
			return // an envelope error: no experiment section was reached
		}
		for _, id := range ids {
			if strings.Contains(msg, id) {
				return
			}
		}
		t.Fatalf("restore error names no experiment: %v", err)
	})
}
