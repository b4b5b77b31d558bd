package core

import (
	"testing"

	"albatross/internal/sim"
)

// The journey ring holds only what has been committed: nothing before the
// first commit, one slot per journey until it holds traceRing of them, and
// after that the newest traceRing, oldest first.
func TestJourneyRingGrowsThenOverwritesOldest(t *testing.T) {
	const size = traceRing
	fr := newFlightRecorder(1)
	if len(fr.ring) != 0 || len(fr.Journeys()) != 0 {
		t.Fatalf("a fresh recorder holds %d journey slots, want 0", len(fr.ring))
	}
	for n := 1; n <= 3*size; n++ {
		fr.commit(&Journey{T0: sim.Time(n)})
		if len(fr.ring) > size {
			t.Fatalf("after %d commits the ring holds %d slots, bound %d", n, len(fr.ring), size)
		}
		js := fr.Journeys()
		if want := min(n, size); len(js) != want {
			t.Fatalf("after %d commits Journeys() = %d, want %d", n, len(js), want)
		}
		for i, j := range js {
			if want := sim.Time(n - len(js) + 1 + i); j.T0 != want {
				t.Fatalf("after %d commits journey %d has T0 %v, want %v", n, i, j.T0, want)
			}
		}
	}
}
