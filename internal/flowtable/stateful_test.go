package flowtable

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"text/tabwriter"
	"time"

	"albatross/internal/sim"
)

// touchSessions is §7's write-heavy stateful NF: workers goroutines each
// look up (creating on a miss) ops packets over 1024 flows, and every lookup
// writes the session's activity stamp. shared
// puts every worker on one table behind one lock, as every core of a
// write-heavy NF under PLB sees its state; otherwise each worker owns its
// table outright (flows pinned per core, state never migrates) and the
// write path takes no lock.
func touchSessions(workers, ops int, shared bool) {
	var mu sync.Mutex
	tables := make([]*SessionTable, workers)
	for w := range tables {
		if w == 0 || !shared {
			tables[w] = NewSessionTableIn(nil, 0, 0)
		} else {
			tables[w] = tables[0]
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := tables[w]
			for i := 0; i < ops; i++ {
				key := tuple((i + w*31) & 1023)
				h := key.Hash()
				if shared {
					mu.Lock()
				}
				if st.Lookup(key, h, sim.Time(i)) == nil {
					st.Create(key, h, sim.Time(i))
				}
				if shared {
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkSessionTables(b *testing.B) {
	for _, shared := range []bool{true, false} {
		name := "per-worker"
		if shared {
			name = "shared"
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				touchSessions(workers, b.N, shared)
			})
		}
	}
}

// TestPerWorkerSessionsKeepUp holds §7's stateful-NF lesson on the host: at
// four workers, per-worker session tables must reach at least 0.95× the
// throughput of one shared locked table. On a single-CPU host the workers
// take turns, the lock is never contended, and the check only asks for the
// same cost class (0.5×). Each side keeps its fastest of three trials.
func TestPerWorkerSessionsKeepUp(t *testing.T) {
	const workers, ops = 4, 50000
	elapsed := func(shared bool) time.Duration {
		start := time.Now()
		touchSessions(workers, ops, shared)
		return time.Since(start)
	}
	sharedT, localT := time.Duration(1<<62), time.Duration(1<<62)
	for trial := 0; trial < 3; trial++ {
		sharedT = min(sharedT, elapsed(true))
		localT = min(localT, elapsed(false))
	}
	margin := 0.95
	if runtime.GOMAXPROCS(0) == 1 {
		margin = 0.5
	}
	mops := func(d time.Duration) float64 { return workers * ops / d.Seconds() / 1e6 }
	t.Logf("GOMAXPROCS=%d: per-worker %.2f vs shared %.2f Mops/s", runtime.GOMAXPROCS(0), mops(localT), mops(sharedT))
	if mops(localT) < mops(sharedT)*margin {
		t.Fatalf("per-worker %.2f Mops/s is below %.2fx the shared table's %.2f", mops(localT), margin, mops(sharedT))
	}
}

// Example_coherenceModel prints §7's coherence model, which the host cannot
// show without real cores: every extra writer of shared session state adds a
// cache-line ping-pong penalty of 0.45 of a packet's cost, so a write-heavy
// NF's aggregate throughput flattens near 2× while per-core state scales
// linearly.
func Example_coherenceModel() {
	const coherence = 0.45
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Cores\tWrite-heavy shared (rel)\tWrite-light/local (rel)")
	peak, last := 0.0, 0.0
	for _, c := range []int{1, 2, 4, 8, 16, 32} {
		last = float64(c) / (1 + coherence*float64(c-1))
		peak = max(peak, last)
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", c, last, float64(c))
	}
	w.Flush()
	fmt.Printf("32 cores: shared %.1fx of a 32x ideal, peak %.2fx\n", last, peak)
	// Output:
	// Cores  Write-heavy shared (rel)  Write-light/local (rel)
	// 1      1.00                      1.00
	// 2      1.38                      2.00
	// 4      1.70                      4.00
	// 8      1.93                      8.00
	// 16     2.06                      16.00
	// 32     2.14                      32.00
	// 32 cores: shared 2.1x of a 32x ideal, peak 2.14x
}
