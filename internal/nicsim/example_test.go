package nicsim

import (
	"fmt"
	"os"
	"text/tabwriter"

	"albatross/internal/sim"
)

// us returns d in microseconds, Tab. 4's unit.
func us(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

// PLBBRAMBytes computes the on-chip memory PLB's reorder structures consume
// for a pod allocation: per queue-entry, the FIFO reorder info (PSN 2B +
// timestamp 6B), the BITMAP mirror (valid+PSN ≈ 2B), and a BUF descriptor
// (16B; packet bytes themselves live in the card's payload memory).
func PLBBRAMBytes(queues, depth int) int64 {
	const perEntry = 2 + 6 + 2 + 16
	return int64(queues) * int64(depth) * perEntry
}

// ExampleLatencyModel prints Tab. 4: the per-module NIC latencies the packet
// path charges, summed for the PLB class.
func ExampleLatencyModel() {
	m := DefaultLatencyModel()
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Module\tRX (µs)\tTX (µs)")
	for _, row := range []struct {
		name string
		lat  ModuleLatency
	}{{"Basic Pipeline", m.Basic}, {"Overload Det.", m.OverloadDet}, {"PLB", m.PLB}, {"DMA", m.DMA}} {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", row.name, us(row.lat.RX), us(row.lat.TX))
	}
	fmt.Fprintf(w, "Sum\t%.2f\t%.2f\n", us(m.IngressLatency(ClassPLB)), us(m.EgressLatency(ClassPLB)))
	w.Flush()
	fmt.Printf("PLB + overload detection overhead: %.2f µs\n", us(m.OverloadDet.RX+m.PLB.RX+m.PLB.TX))
	fmt.Printf("DMA dominates ingress: %v\n", m.DMA.RX > m.Basic.RX+m.OverloadDet.RX+m.PLB.RX)
	// Output:
	// Module          RX (µs)  TX (µs)
	// Basic Pipeline  0.58     0.84
	// Overload Det.   0.10     0.00
	// PLB             0.05     0.35
	// DMA             3.17     2.98
	// Sum             3.90     4.17
	// PLB + overload detection overhead: 0.50 µs
	// DMA dominates ingress: true
}

// ExampleResourceModel prints Tab. 5, the FPGA synthesis results, and checks
// that PLB's reorder state for 8 queues of 4K entries fits PLB's 5 % BRAM
// share with room left for the §7 offloads.
func ExampleResourceModel() {
	m := DefaultResourceModel()
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Module\tLUT %\tBRAM %")
	for _, name := range []string{"basic", "overload", "plb", "dma"} {
		res := m.Modules[name]
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", name, res.LUTPct, res.BRAMPct)
	}
	s := m.Sum()
	fmt.Fprintf(w, "Sum\t%.2f\t%.2f\n", s.LUTPct, s.BRAMPct)
	w.Flush()
	budget := int64(float64(m.TotalBRAMBits) * 0.05 / 8)
	fmt.Printf("PLB reorder state: %d B of a %d B budget\n", PLBBRAMBytes(8, 4096), budget)
	h := m.Headroom()
	fmt.Printf("headroom: LUT %.1f%%, BRAM %.1f%% free\n", h.LUTPct, h.BRAMPct)
	// Output:
	// Module    LUT %  BRAM %
	// basic     42.90  38.20
	// overload  2.00   0.00
	// plb       12.60  5.00
	// dma       2.50   1.30
	// Sum       60.00  44.50
	// PLB reorder state: 851968 B of a 1736704 B budget
	// headroom: LUT 40.0%, BRAM 55.5% free
}
