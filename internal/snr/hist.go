package snr

// hist.go holds the value→count histogram every chunked §4 core banks its
// quantized throughputs and penalties in. It is the hottest structure of
// the §4 sample phase: the Global and Network penalty banks do one
// histogram add per (sample, candidate rate), tens of millions per
// reference-scale run. A Go map costs a full hash and a bucket walk per
// add; the open-addressed table below costs a multiply and, at its load
// factor, about one probe, with no more memory per entry than the map.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// emptyKey marks a free f64Table slot. It is a NaN bit pattern, and NaN
// keys are never stored (diffHist counts NaNs apart, and the dictionary
// interns NaN under its own id), so no stored key can collide with it.
const emptyKey = 0x7ff8_0000_0000_0f0f

// minSlots is a table's size on first insert.
const minSlots = 8

// f64Slot is one table entry: a key's bits and its value.
type f64Slot struct {
	k uint64
	v int64
}

// f64Table is a compact open-addressed float64 → int64 table with linear
// probing, keyed by math.Float64bits. Keys compare as float64 map keys
// do for every key it may hold (any non-NaN value): -0 and +0 are one
// key, stored as +0. Its zero value is an empty table that allocates on
// first insert; the slot count is a power of two and at most 3/4 full.
type f64Table struct {
	slots []f64Slot
	n     int   // occupied slots
	shift uint8 // 64 − log2(len(slots))
}

// f64Key returns the table key of a non-NaN value.
func f64Key(v float64) uint64 {
	k := math.Float64bits(v)
	if k == 1<<63 { // -0 equals +0
		k = 0
	}
	return k
}

// home returns a key's first probe slot: a multiplicative (Fibonacci)
// hash of the bits, xor-folded first so the exponent bits reach the low
// half too.
func (t *f64Table) home(k uint64) int {
	k ^= k >> 32
	return int((k * 0x9e3779b97f4a7c15) >> t.shift)
}

// slot returns the index of v's slot, inserting v with value 0 when it
// is absent (fresh reports the insert). v must not be NaN. Growth can
// move slots, so an index is valid only until the next insert.
func (t *f64Table) slot(v float64) (i int, fresh bool) {
	k := f64Key(v)
	if len(t.slots) == 0 {
		t.resize(minSlots)
	}
	mask := len(t.slots) - 1
	for i = t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].k {
		case k:
			return i, false
		case emptyKey:
			if 4*(t.n+1) > 3*len(t.slots) {
				t.resize(2 * len(t.slots))
				return t.slot(v)
			}
			t.slots[i] = f64Slot{k: k}
			t.n++
			return i, true
		}
	}
}

// resize rehashes every entry into size slots (a power of two).
func (t *f64Table) resize(size int) {
	old := t.slots
	t.slots = make([]f64Slot, size)
	for i := range t.slots {
		t.slots[i].k = emptyKey
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.k == emptyKey {
			continue
		}
		i := t.home(s.k)
		for t.slots[i].k != emptyKey {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// each calls fn for every stored key and its value, in slot order.
func (t *f64Table) each(fn func(v float64, n int64)) {
	for _, s := range t.slots {
		if s.k != emptyKey {
			fn(math.Float64frombits(s.k), s.v)
		}
	}
}

// diffHist accumulates a value→count histogram with NaN tracking.
type diffHist struct {
	t   f64Table
	nan int64
}

func (h *diffHist) add(v float64, n int64) {
	if v != v {
		h.nan += n
		return
	}
	i, _ := h.t.slot(v)
	h.t.slots[i].v += n
}

// merge folds another histogram into this one.
func (h *diffHist) merge(o *diffHist) {
	h.nan += o.nan
	o.t.each(h.add)
}

// sorted returns the histogram's distinct non-NaN values in ascending
// order with their counts.
func (h *diffHist) sorted() (vals []float64, counts []int64) {
	if h.t.n == 0 {
		return nil, nil
	}
	entries := make([]f64Slot, 0, h.t.n)
	for _, s := range h.t.slots {
		if s.k != emptyKey {
			entries = append(entries, s)
		}
	}
	slices.SortFunc(entries, func(a, b f64Slot) int {
		return cmp.Compare(math.Float64frombits(a.k), math.Float64frombits(b.k))
	})
	vals = make([]float64, len(entries))
	counts = make([]int64, len(entries))
	for i, s := range entries {
		vals[i], counts[i] = math.Float64frombits(s.k), s.v
	}
	return vals, counts
}

func (h *diffHist) freeze() *Dist { return &Dist{c: *newCounted(h)} }
