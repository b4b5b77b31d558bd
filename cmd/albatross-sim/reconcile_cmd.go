package main

import (
	"fmt"
	"io"

	"albatross"
)

// reconcileCmd implements `albatross-sim reconcile -plan`, a dry run of the
// desired-state reconciler: it diffs the desired state against a freshly
// deployed fleet and prints the unsequenced plan without running any
// traffic. The desired state is a scenario file's spec: block, or -spec FILE
// (with -nodes N in place of a scenario file). A reconcile drill itself runs
// with `albatross-sim run`, like every other drill.
//
//	albatross-sim reconcile -plan scenarios/reconcile-canary.yaml
//	albatross-sim reconcile -plan -spec spec.yaml -nodes 3
func reconcileCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("reconcile", stderr, "usage: albatross-sim reconcile -plan [-spec FILE] scenario.yaml\n"+
		"       albatross-sim reconcile -plan -spec FILE -nodes N\n")
	var (
		specPath = fs.String("spec", "", "standalone desired-state file; replaces the scenario's spec: block")
		plan     = fs.Bool("plan", false, "print the reconcile plan against a fresh fleet (required)")
		nodes    = fs.Int("nodes", 0, "fleet width without a scenario file")
		seed     = fs.Uint64("seed", 1, "simulation seed without a scenario file")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if !*plan {
		fmt.Fprintln(stderr, "reconcile prints a -plan only: run a reconcile drill with `albatross-sim run scenario.yaml`")
		fs.Usage()
		return 2
	}
	if fs.NArg() > 1 {
		fs.Usage()
		return 2
	}

	var s *albatross.Scenario
	if fs.NArg() == 1 {
		var err error
		s, err = albatross.LoadScenarioFile(fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
	}
	var spec *albatross.ReconcileSpec
	if *specPath != "" {
		var err error
		spec, err = albatross.LoadSpecFile(*specPath)
		if err != nil {
			return fail(stderr, err)
		}
	}
	width, sd := *nodes, *seed
	if s != nil {
		if spec != nil {
			s.Spec = spec
			if err := s.Validate(); err != nil {
				return fail(stderr, fmt.Errorf("%s with -spec %s: %w", fs.Arg(0), *specPath, err))
			}
		}
		if s.Spec == nil {
			return fail(stderr, fmt.Errorf("%s has no spec: block; add one or pass -spec FILE", fs.Arg(0)))
		}
		width, sd, spec = s.Fleet.Nodes, s.Seed, s.Spec
	}
	if spec == nil || width <= 0 {
		fmt.Fprintln(stderr, "reconcile -plan needs a scenario file, or -spec FILE with -nodes N")
		return 2
	}
	if err := printPlan(stdout, spec, width, sd); err != nil {
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
