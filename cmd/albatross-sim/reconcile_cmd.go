package main

import (
	"fmt"
	"io"
	"time"

	"albatross"
)

// reconcileCmd implements `albatross-sim reconcile`: the control-plane
// runner. Two modes:
//
//	albatross-sim reconcile scenario.yaml
//	    Execute a scenario whose fleet is driven by the desired-state
//	    reconciler (the file's spec: block, or -spec FILE). Prints the
//	    deterministic report — including the timed reconcile step log —
//	    and returns 1 when any assertion fails or the reconciler did not
//	    converge cleanly.
//
//	albatross-sim reconcile -plan -spec spec.yaml -nodes 3
//	    Dry run: diff the desired state against a freshly deployed fleet
//	    of N members and print the unsequenced plan without running any
//	    traffic. Also works with a scenario file in place of -nodes.
func reconcileCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("reconcile", stderr, "usage: albatross-sim reconcile [-plan] [-spec FILE] [scenario.yaml]\n"+
		"       albatross-sim reconcile -plan -spec FILE -nodes N\n")
	var (
		specPath = fs.String("spec", "", "standalone desired-state file; replaces the scenario's spec: block")
		plan     = fs.Bool("plan", false, "dry run: print the reconcile plan against a fresh fleet, don't run traffic")
		nodes    = fs.Int("nodes", 0, "fleet width for -plan without a scenario file")
		seed     = fs.Uint64("seed", 1, "simulation seed for -plan without a scenario file")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
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
	}

	if *plan {
		width := *nodes
		sd := *seed
		if s != nil {
			width, sd = s.Fleet.Nodes, s.Seed
			spec = s.Spec
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

	if s == nil {
		fs.Usage()
		return 2
	}
	wall := time.Now()
	res, err := s.Run()
	if err != nil {
		return fail(stderr, err)
	}
	return printResult(res, wall, stdout, stderr)
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
