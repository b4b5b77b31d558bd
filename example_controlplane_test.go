package albatross_test

import (
	"fmt"

	"albatross"
)

// ExampleWithSpec deploys a cluster under the desired-state reconciler:
// the spec declares one more member than the fleet, so the reconcile loop
// grows the cluster, one rate-limited step per tick.
func ExampleWithSpec() {
	spec := &albatross.ReconcileSpec{
		Interval: albatross.Millisecond,
		Members:  []albatross.MemberSpec{{}, {}, {Weight: 0.5}},
	}
	c, err := albatross.NewCluster(
		albatross.WithSeed(1),
		albatross.WithNodes(2),
		albatross.WithSpec(spec),
	)
	if err != nil {
		panic(err)
	}
	r := c.Controller().(*albatross.Reconciler)
	c.RunFor(10 * albatross.Millisecond)
	fmt.Println(r.Summary())
	for _, s := range r.Steps() {
		fmt.Println(s)
	}
	// Output:
	// reconciler: 10 ticks, 2 steps, converged
	// 1ms node=2 add
	// 2ms node=2 weight 1 -> 0.5
}
