package snr

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"meshlab/internal/binio"
)

// refHist is the map-backed histogram the open-addressed diffHist
// replaced, kept as its oracle.
type refHist struct {
	m   map[float64]int64
	nan int64
}

func (h *refHist) add(v float64, n int64) {
	if math.IsNaN(v) {
		h.nan += n
		return
	}
	if h.m == nil {
		h.m = make(map[float64]int64)
	}
	h.m[v] += n
}

// encode is the sorted-key snapshot encoding checkpoint files carry.
func (h *refHist) encode() []byte {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	keys := make([]float64, 0, len(h.m))
	for v := range h.m {
		keys = append(keys, v)
	}
	sort.Float64s(keys)
	w.Int(len(keys))
	for _, v := range keys {
		w.F64(v)
		w.I64(h.m[v])
	}
	w.I64(h.nan)
	return buf.Bytes()
}

func encodeHist(t *testing.T, h *diffHist) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	writeHist(w, h)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return buf.Bytes()
}

// histValue draws a value from a quantized throughput-like alphabet of
// the given size, with NaN and +0 mixed in.
func histValue(rng *rand.Rand, distinct int) float64 {
	switch rng.Intn(20) {
	case 0:
		return math.NaN()
	case 1:
		return 0
	}
	return float64(rng.Intn(distinct)) * 0.37 * 1e6 / 18
}

// TestDiffHistMatchesMapReference is the open-addressed histogram's
// oracle against the map it replaced: the same counts, NaN tally, and
// snapshot bytes (so checkpoint files are unchanged), over alphabets that
// stay in the first table and ones that grow it through many rehashes;
// restore and merge must agree too.
func TestDiffHistMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, distinct := range []int{1, 5, 40, 3000} {
		var h, o diffHist
		var ref, both refHist
		for i := 0; i < 20000; i++ {
			v, n := histValue(rng, distinct), int64(1+rng.Intn(3))
			if i%2 == 0 {
				h.add(v, n)
				ref.add(v, n)
			} else {
				o.add(v, n)
			}
			both.add(v, n)
		}
		if distinct > 100 && len(h.t.slots) < 4096 {
			t.Fatalf("%d distinct values left only %d slots: growth not exercised", distinct, len(h.t.slots))
		}
		if 4*h.t.n > 3*len(h.t.slots) {
			t.Fatalf("table over its load factor: %d of %d slots", h.t.n, len(h.t.slots))
		}
		got := encodeHist(t, &h)
		if want := ref.encode(); !bytes.Equal(got, want) {
			t.Fatalf("%d distinct: writeHist bytes differ from the sorted-key map encoding", distinct)
		}
		var back diffHist
		readHist(binio.NewReader(bytes.NewReader(got)), &back)
		if !bytes.Equal(encodeHist(t, &back), got) {
			t.Fatalf("%d distinct: restore + re-snapshot changed the bytes", distinct)
		}
		h.merge(&o)
		if !bytes.Equal(encodeHist(t, &h), both.encode()) {
			t.Fatalf("%d distinct: merge diverges from the combined map", distinct)
		}
		if !materializeEqualNaN(h.freeze().Materialize(), both.materialize()) {
			t.Fatalf("%d distinct: frozen distribution diverges", distinct)
		}
	}
}

// materialize expands the reference histogram the way Dist.Materialize
// does: NaNs first, then values ascending.
func (r *refHist) materialize() []float64 {
	var out []float64
	for i := int64(0); i < r.nan; i++ {
		out = append(out, math.NaN())
	}
	keys := make([]float64, 0, len(r.m))
	for v := range r.m {
		keys = append(keys, v)
	}
	sort.Float64s(keys)
	for _, v := range keys {
		for i := int64(0); i < r.m[v]; i++ {
			out = append(out, v)
		}
	}
	return out
}

// TestDiffHistZeroAndNaN: NaN never enters the table (it is counted
// apart, even when restored from a snapshot), -0 and +0 are one key
// stored as +0 (as in a float64-keyed map), and a zero count is kept.
func TestDiffHistZeroAndNaN(t *testing.T) {
	var h diffHist
	h.add(math.NaN(), 2)
	h.add(0, 1)
	h.add(math.Copysign(0, -1), 4)
	h.add(1.5, 0)
	vals, counts := h.sorted()
	if h.nan != 2 || !reflect.DeepEqual(counts, []int64{5, 0}) || len(vals) != 2 ||
		math.Signbit(vals[0]) || vals[0] != 0 || vals[1] != 1.5 {
		t.Fatalf("got vals %v counts %v nan %d; want [+0 1.5] [5 0] nan 2", vals, counts, h.nan)
	}

	// A NaN key can only come from a crafted snapshot; it joins the tally.
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Int(2)
	w.F64(math.NaN())
	w.I64(3)
	w.F64(2.5)
	w.I64(1)
	w.I64(4)
	var r diffHist
	readHist(binio.NewReader(&buf), &r)
	if vals, _ := r.sorted(); r.nan != 7 || len(vals) != 1 || vals[0] != 2.5 {
		t.Fatalf("restored NaN key: nan %d, vals %v; want nan 7, vals [2.5]", r.nan, vals)
	}
}
