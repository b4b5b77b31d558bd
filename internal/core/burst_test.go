package core

import (
	"fmt"
	"testing"

	"albatross/internal/cpu"
	"albatross/internal/pod"
	"albatross/internal/sim"
)

// scanDue is nextDue as a linear scan for the least (at, seq) over heads,
// the lowest source on a tie: the winner tree's oracle. Like nextDue it
// re-reads the core it picks, into heads.
func scanDue(heads []completion, cores []*cpu.Core) (int, sim.Time, uint64) {
	for {
		best, at, seq := -1, sim.TimeMax, uint64(0)
		for i := range heads {
			if h := &heads[i]; h.at < at || (h.at == at && h.seq < seq) {
				best, at, seq = i, h.at, h.seq
			}
		}
		if best < 0 || best >= len(cores) {
			return best, at, seq
		}
		h := &heads[best]
		if h.at, h.seq = cores[best].Next(); h.at == at && h.seq == seq {
			return best, at, seq
		}
	}
}

// TestWinnerTreeMatchesScan holds nextDue to scanDue under random head
// updates: admissions, retirements at the due completion, egress heads set
// and cleared, stalls that leave a core's head early, slow factors,
// failures and recoveries. Pods of 1 to 70 cores pad 3 to 72 sources to 4
// to 128 leaves.
func TestWinnerTreeMatchesScan(t *testing.T) {
	for _, cores := range []int{1, 2, 6, 8, 14, 70} {
		t.Run(fmt.Sprintf("%d-cores", cores), func(t *testing.T) {
			e := sim.NewEngine()
			pr := &PodRuntime{}
			for i := range cores {
				pr.Cores = append(pr.Cores, cpu.NewCore(e, i, 4))
			}
			sources := cores + len(pr.egress)
			pr.initHeads(sources)
			oracle := make([]completion, sources)
			for i := range oracle {
				oracle[i].at = sim.TimeMax
			}
			set := func(i int, h completion) {
				pr.setHead(i, h)
				oracle[i] = h
			}
			refresh := func(i int) {
				at, seq := pr.Cores[i].Next()
				set(i, completion{at, seq})
			}
			r := sim.NewRand(uint64(cores))
			retired := 0
			for step := range 20_000 {
				i := r.Intn(sources)
				var c *cpu.Core
				if i < cores {
					c = pr.Cores[i]
				}
				switch k := r.Intn(16); {
				case k < 6 && c != nil:
					if c.Admit(nil, sim.Duration(1+r.Intn(3000))) && c.Pending() == 1 {
						refresh(i)
					}
				case k < 8 && c == nil:
					if r.Intn(3) == 0 {
						set(i, completion{at: sim.TimeMax})
					} else {
						set(i, completion{e.Now().Add(sim.Duration(r.Intn(4000))), e.Reserve()})
					}
				case k == 8 && c != nil:
					c.Stall(sim.Duration(1 + r.Intn(2000))) // the head stays early
				case k == 9 && c != nil:
					c.SetSlowFactor([]float64{1, 2.5, 0.5}[r.Intn(3)])
					refresh(i)
				case k == 10 && c != nil && r.Intn(4) == 0:
					c.Fail(nil)
					refresh(i)
				case k == 11 && c != nil:
					c.Recover()
				default:
					src, at, seq := pr.nextDue()
					if wsrc, wat, wseq := scanDue(oracle, pr.Cores); src != wsrc || at != wat || seq != wseq {
						t.Fatalf("step %d: nextDue = (%d, %v, %d), scan (%d, %v, %d)", step, src, at, seq, wsrc, wat, wseq)
					}
					if src < 0 || r.Intn(4) == 0 {
						break
					}
					e.RunUntil(at)
					retired++
					if src < cores {
						pr.Cores[src].Retire(func(any) {})
						refresh(src)
					} else {
						set(src, completion{at: sim.TimeMax})
					}
				}
				for j := range oracle {
					if leaf := pr.tree[len(pr.tree)/2+j]; leaf.completion != oracle[j] {
						t.Fatalf("step %d: leaf %d = %+v, oracle %+v", step, j, leaf, oracle[j])
					}
				}
			}
			if retired < 1000 {
				t.Fatalf("only %d completions retired", retired)
			}
		})
	}
}

// BenchmarkSettle times the step a pod timer repeats while it settles, over
// 8 cores and 2 egress queues: find the next completion, retire it and
// record its source's next one. Every core holds four packets (each retired
// one is admitted again) and each egress queue one entry at a time.
func BenchmarkSettle(b *testing.B) {
	n := smallNode(b, nil)
	_, sf := wflows(100, 1)
	pr := addPod(b, n, pod.ModePLB, 8, sf, nil)
	e := n.Engine
	r := sim.NewRand(1)
	cost := func() sim.Duration { return sim.Duration(500 + r.Intn(1500)) }
	readmit := func(i int) func(any) {
		return func(any) { pr.Cores[i].Admit(nil, cost()) }
	}
	done := make([]func(any), len(pr.Cores))
	for i, c := range pr.Cores {
		done[i] = readmit(i)
		for range 4 {
			c.Admit(nil, cost())
		}
		at, seq := c.Next()
		pr.setHead(i, completion{at, seq})
	}
	for k := range len(pr.egress) {
		pr.setHead(len(pr.Cores)+k, completion{e.Now().Add(4000), e.Reserve()})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		src, at, _ := pr.nextDue()
		if src < len(pr.Cores) {
			pr.Cores[src].Retire(done[src])
			next, seq := pr.Cores[src].Next()
			pr.setHead(src, completion{next, seq})
		} else {
			pr.setHead(src, completion{at.Add(sim.Duration(300 + r.Intn(700))), e.Reserve()})
		}
	}
}
