package gop

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// MeterEntryBytes is the modelled SRAM footprint of one meter entry. The
// paper's arithmetic (">200MB for 1M tenants", "2MB for the two-stage
// scheme") implies ~200B per entry including rate configuration, bucket
// state and metadata.
const MeterEntryBytes = 200

// SRAMBytes returns the modelled on-chip memory of the configured tables.
func (l *Limiter) SRAMBytes() int64 {
	entries := l.cfg.ColorEntries + l.cfg.MeterEntries + 2*l.cfg.PreEntries
	return int64(entries) * MeterEntryBytes
}

// NaiveSRAMBytes returns the memory a per-tenant meter table would need.
func NaiveSRAMBytes(tenants int) int64 { return int64(tenants) * MeterEntryBytes }

// ExampleLimiter_SRAMBytes prints the §4.3 budget: a meter per tenant for a
// million tenants needs 200 MB of SRAM, the two-stage limiter's tables under
// 2 MB, about a hundredth.
func ExampleLimiter_SRAMBytes() {
	cfg := DefaultConfig()
	l, err := NewLimiter(cfg)
	if err != nil {
		panic(err)
	}
	naive, two := NaiveSRAMBytes(1_000_000), l.SRAMBytes()
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Scheme\tSRAM for 1M tenants\tEntries")
	fmt.Fprintf(w, "Per-tenant meters (naive)\t%d\t%d\n", naive, 1_000_000)
	fmt.Fprintf(w, "Two-stage (color+meter+pre)\t%d\t%d\n", two, cfg.ColorEntries+cfg.MeterEntries+2*cfg.PreEntries)
	w.Flush()
	fmt.Printf("reduction: %dx\n", naive/two)
	// Output:
	// Scheme                       SRAM for 1M tenants  Entries
	// Per-tenant meters (naive)    200000000            1000000
	// Two-stage (color+meter+pre)  1689600              8448
	// reduction: 118x
}
