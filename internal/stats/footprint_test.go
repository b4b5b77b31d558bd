package stats

import (
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"
)

// TestHistogramHoldsTouchedRows pins addRow's growth rule over random
// programs of Record, RecordN and RecordZero, each now and then restarted
// on a fresh histogram: buckets holds exactly the touched rows, and its
// capacity is that row count rounded up to a power of two, times the row
// width.
func TestHistogramHoldsTouchedRows(t *testing.T) {
	for _, subBits := range []uint{1, 6, 8, 12} {
		r := rand.New(rand.NewSource(int64(subBits)))
		ref := newRefHistogram(subBits)
		width := 1 << subBits
		for prog := 0; prog < 50; prog++ {
			h := NewHistogram(subBits)
			touched := map[int]bool{0: true}
			for op := 0; op < 200; op++ {
				v := spread(r)
				if r.Intn(16) == 0 {
					v = -v
				}
				switch k := r.Intn(8); {
				case k == 0:
					h.RecordZero()
				case k == 1:
					n := uint64(r.Intn(3))
					h.RecordN(v, n)
					if n > 0 {
						touched[ref.index(v)>>subBits] = true
					}
				case k == 2:
					h = NewHistogram(subBits)
					touched = map[int]bool{0: true}
				default:
					h.Record(v)
					touched[ref.index(v)>>subBits] = true
				}
				rows := len(touched)
				if got := len(h.buckets); got != rows*width {
					t.Fatalf("subBits %d: %d touched rows hold %d counters, want %d", subBits, rows, got, rows*width)
				}
				if got, want := cap(h.buckets), (1<<bits.Len(uint(rows-1)))*width; got != want {
					t.Fatalf("subBits %d: %d touched rows: cap %d, want %d", subBits, rows, got, want)
				}
			}
		}
	}
}

// TestHistogramHeaderSize pins the header at two cache lines: the row
// table is one byte per magnitude.
func TestHistogramHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Histogram{}); got != 128 {
		t.Fatalf("Histogram header is %d bytes, want 128", got)
	}
}
