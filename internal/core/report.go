package core

import (
	"fmt"
	"strings"

	"albatross/internal/stats"
)

// Report renders an operator-facing snapshot of the node: per-pod traffic
// counters, latency percentiles, PLB health and cache state — the numbers
// an Albatross operator dashboards.
func (n *Node) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "albatross node @ %v virtual, %d pods\n", n.Engine.Now(), len(n.pods))

	t := stats.NewTable("Pod", "Svc", "Mode", "Cores", "Rx", "Tx",
		"Drops(nic/q/plb/acl)", "p50µs", "p99µs", "Disorder")
	for _, pr := range n.pods {
		t.AddRow(
			pr.Pod.Spec.Name,
			pr.Pod.Spec.Service.String(),
			pr.Mode().String(),
			len(pr.Cores),
			pr.Rx, pr.Tx,
			fmt.Sprintf("%d/%d/%d/%d", pr.NICDrops, pr.QueueDrops, pr.PLBDrops, pr.ServiceDrop),
			float64(pr.Latency.Quantile(0.50))/1000,
			float64(pr.Latency.Quantile(0.99))/1000,
			fmt.Sprintf("%.1e", pr.DisorderRate()),
		)
	}
	b.WriteString(t.String())

	for _, pr := range n.pods {
		st := stats.NewTable("Stage", "In", "Out", "Drops", "InFlight", "p50µs", "p99µs")
		resid := pr.StageResidency()
		for i, c := range pr.Stages() {
			h := resid[i]
			st.AddRow(c.Name, c.In, c.Out, c.Drops, c.InFlight(),
				float64(h.Quantile(0.5))/1000, float64(h.Quantile(0.99))/1000)
		}
		fmt.Fprintf(&b, "stages[%s]:\n%s", pr.Pod.Spec.Name, st.String())
	}

	for i, c := range n.caches {
		if c == nil {
			fmt.Fprintf(&b, "L3[numa%d]: %s\n", i, n.cfg.Cache.ColdString())
			continue
		}
		fmt.Fprintf(&b, "L3[numa%d]: %v\n", i, c)
	}
	if n.Limiter != nil {
		s := n.Limiter.Stats()
		fmt.Fprintf(&b, "gop: stage1=%d stage2=%d drops=%d pre=%d installs=%d\n",
			s.Stage1Conform, s.Stage2Conform, s.Stage2Drops, s.PreMetered, s.HeavyInstalls)
	}
	for _, pr := range n.pods {
		if pr.PLB == nil {
			continue
		}
		s := pr.PLB.Stats()
		fmt.Fprintf(&b, "plb[%s]: inorder=%d besteffort=%d hol=%d timeout=%d dropflag=%d headwait(mean=%v max=%v)\n",
			pr.Pod.Spec.Name, s.EmittedInOrder, s.EmittedBestEffort,
			s.HOLEvents, s.TimeoutReleases, s.DropFlagReleases,
			pr.PLB.HeadWaitMean(), pr.PLB.HeadWaitMax())
	}
	return b.String()
}
