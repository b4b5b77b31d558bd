package pod

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// ExampleCostModel prints Fig. 15: one availability zone's 32 legacy gateways
// fold onto 8 Albatross servers, halving the cost and cutting power by 40 %.
func ExampleCostModel() {
	c := DefaultCostModel().Compare()
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Metric\tLegacy (1st/2nd gen)\tAlbatross")
	fmt.Fprintf(w, "Devices\t%d\t%d\n", c.LegacyGateways, c.AlbatrossServers)
	fmt.Fprintf(w, "Relative cost\t%.2f\t%.2f\n", c.LegacyCost, c.AlbatrossCost)
	fmt.Fprintf(w, "Power (W)\t%.2f\t%.2f\n", c.LegacyPowerW, c.AlbatrossPowerW)
	w.Flush()
	fmt.Printf("reduction: devices %.0f%%, cost %.0f%%, power %.0f%%\n",
		c.ServerReduction*100, c.CostReduction*100, c.PowerReduction*100)
	// Output:
	// Metric         Legacy (1st/2nd gen)  Albatross
	// Devices        32                    8
	// Relative cost  32.00                 16.00
	// Power (W)      12000.00              7200.00
	// reduction: devices 75%, cost 50%, power 40%
}
