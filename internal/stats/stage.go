package stats

import "fmt"

// StageCounter tracks packet conservation through one pipeline stage. A
// stage either passes a packet to the next stage (Out), drops it (Drops),
// or still holds it in flight (the difference). After a pipeline drains,
// In == Out + Drops must hold for every stage — the invariant the staged
// ingress pipeline's tests pin.
type StageCounter struct {
	Name string
	// In counts packets entering the stage.
	In uint64
	// Out counts packets the stage completed: advanced to the next stage,
	// or (for the last stage and early exits like the priority shortcut)
	// finished the pipeline.
	Out uint64
	// Drops counts packets the stage terminated: NIC rate limiting, queue
	// overflow, reorder-FIFO overflow, service denial, fault loss.
	Drops uint64
}

// InFlight returns the packets currently inside the stage (asynchronous
// stages: NIC DMA, CPU queues, the reorder engine).
func (c *StageCounter) InFlight() uint64 { return c.In - c.Out - c.Drops }

// Balanced reports the drained-pipeline invariant In == Out + Drops.
func (c *StageCounter) Balanced() bool { return c.In == c.Out+c.Drops }

// String renders the counter for stage tables.
func (c *StageCounter) String() string {
	return fmt.Sprintf("%s: in=%d out=%d drops=%d", c.Name, c.In, c.Out, c.Drops)
}

// StageBalance verifies the conservation invariant across a drained
// pipeline's counters and names the first unbalanced stage.
func StageBalance(counters []StageCounter) (string, bool) {
	for i := range counters {
		if !counters[i].Balanced() {
			return counters[i].String(), false
		}
	}
	return "", true
}
