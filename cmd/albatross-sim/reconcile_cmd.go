package main

import (
	"fmt"
	"io"

	"albatross"
)

// reconcileCmd implements `albatross-sim reconcile -plan`, a dry run of the
// desired-state reconciler: it diffs a scenario file's spec: block against
// a freshly deployed fleet and prints the unsequenced plan without running
// any traffic. A reconcile drill itself runs with `albatross-sim run`, like
// every other drill.
//
//	albatross-sim reconcile -plan scenarios/reconcile-canary.yaml
func reconcileCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("reconcile", stderr, "usage: albatross-sim reconcile -plan scenario.yaml\n")
	plan := fs.Bool("plan", false, "print the reconcile plan against a fresh fleet (required)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if !*plan {
		fmt.Fprintln(stderr, "reconcile prints a -plan only: run a reconcile drill with `albatross-sim run scenario.yaml`")
		fs.Usage()
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	s, err := albatross.LoadScenarioFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if s.Spec == nil {
		return fail(stderr, fmt.Errorf("%s has no spec: block", fs.Arg(0)))
	}
	if err := printPlan(stdout, s.Spec, s.Fleet.Nodes, s.Seed); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// printPlan deploys a bare fleet of width members, attaches the reconciler,
// and prints the unsequenced diff. Nothing runs: the plan is the
// desired-vs-fresh delta, in member order, before any rate limiting.
func printPlan(w io.Writer, spec *albatross.ReconcileSpec, width int, seed uint64) error {
	c, err := albatross.NewCluster(
		albatross.WithNodes(width),
		albatross.WithSeed(seed),
		albatross.WithSpec(spec),
	)
	if err != nil {
		return err
	}
	r, ok := c.Controller().(*albatross.Reconciler)
	if !ok {
		return fmt.Errorf("internal: cluster controller is not a reconciler")
	}
	steps := r.Plan()
	fmt.Fprintf(w, "reconcile plan: %d member(s) observed, %d desired, interval %v\n",
		width, len(spec.Members), r.Interval())
	if len(steps) == 0 {
		fmt.Fprintln(w, "  in sync: no steps")
		return nil
	}
	for _, st := range steps {
		line := fmt.Sprintf("node=%d %s", st.Node, st.Action)
		if st.Detail != "" {
			line += " " + st.Detail
		}
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "  %d step(s); at one step per tick the fleet converges in ~%v\n",
		len(steps), albatross.Duration(len(steps))*r.Interval())
	return nil
}
