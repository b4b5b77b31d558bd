// Command albatross-sim runs Albatross gateway simulations from declarative
// scenario files — the one interface to the fleet simulator:
//
//	albatross-sim run scenarios/node-crash.yaml
//	albatross-sim validate scenarios/*.yaml
//	albatross-sim reconcile -plan scenarios/reconcile-canary.yaml
//	albatross-sim replay-diff outcome-a.txt outcome-b.txt
//
// A scenario file declares the fleet, workload, timed fault script, and an
// assertions block; `run` executes it and exits non-zero when an assertion
// fails. `run` takes override flags (-nodes, -shards, -burst, -metrics-out,
// ...) for one-off variations of a committed drill, and -cpuprofile FILE to
// see where the host time of a run went (go tool pprof).
//
// Exit codes: 0 success, 1 a scenario failed to load, run or hold its
// assertions (or replay-diff found a difference), 2 bad command line (an
// override that makes the loaded scenario invalid included) or an
// unwritable -cpuprofile file.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

const usage = `Usage:
  albatross-sim run [overrides] scenario.yaml     execute a declarative gameday scenario
  albatross-sim validate scenario.yaml...         load-check scenarios without running them
  albatross-sim reconcile -plan scenario.yaml     dry-run a desired-state spec: print its reconcile plan
  albatross-sim replay-diff [-shards N] A B       compare two outcome reports (exit 1 on diff)

Run "albatross-sim <subcommand> -h" for a subcommand's flags.
`

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"run":         runCmd,
	"validate":    validateCmd,
	"reconcile":   reconcileCmd,
	"replay-diff": replayDiffCmd,
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain dispatches to a subcommand and returns the process exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	if cmd, ok := subcommands[args[0]]; ok {
		return cmd(args[1:], stdout, stderr)
	}
	switch name := args[0]; {
	case name == "help" || name == "-h" || name == "-help" || name == "--help":
		fmt.Fprint(stdout, usage)
		return 0
	case strings.HasPrefix(name, "-"):
		fmt.Fprintf(stderr, "albatross-sim: no flat-flag mode (%s): declare the run in a scenario file and use `albatross-sim run [overrides] scenario.yaml`\n", name)
	default:
		fmt.Fprintf(stderr, "albatross-sim: unknown subcommand %q\n", name)
	}
	fmt.Fprint(stderr, usage)
	return 2
}
