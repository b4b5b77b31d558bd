package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the command line's contract: 2 for a bad command line
// (with the usage, and for a former flat flag a pointer to `run`), including
// an override that makes a loaded scenario invalid; 1 for a scenario that
// does not load (one line, no runtime crash) or fails an assertion; 0 for
// one that loads and passes.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		wantStdout string
		wantStderr string
	}{
		{"no args", nil, 2, "", "Usage:"},
		{"former flat flag", []string{"-nodes", "3"}, 2, "", "albatross-sim run [overrides] scenario.yaml`\n"},
		{"unknown subcommand", []string{"frobnicate"}, 2, "", `unknown subcommand "frobnicate"`},
		{"help", []string{"help"}, 0, "Usage:", ""},
		{"unknown run override", []string{"run", "-pcap", "x", "s.yaml"}, 2, "", "flag provided but not defined: -pcap"},
		{"run without a file", []string{"run"}, 2, "", "usage: albatross-sim run"},
		{"validate committed drill", []string{"validate", "../../scenarios/node-crash.yaml"}, 0, "node-crash.yaml: OK", ""},
		{"validate invalid file", []string{"validate", "../../internal/scenario/testdata/invalid/unknown-key.yaml"}, 1, "INVALID", ""},
		{"run cache_mb over the ceiling", []string{"run", "-cache-mb", "1000000", "../../scenarios/healthy-baseline.yaml"}, 2, "", "fleet.cache_mb must be in [0,4096]"},
		{"run nodes over the ceiling", []string{"run", "-nodes", "100000", "../../scenarios/healthy-baseline.yaml"}, 2, "", "fleet.nodes must be in [1,65536]"},
		{"run unwritable cpuprofile", []string{"run", "-cpuprofile", "no-such-dir/cpu.prof", "../../scenarios/healthy-baseline.yaml"}, 2, "", "-cpuprofile: open no-such-dir/cpu.prof"},
		{"run unknown backend", []string{"run", "-backend", "bogus", "../../scenarios/healthy-baseline.yaml"}, 2, "", `unknown flow-table backend "bogus"`},
		{"run non-positive duration", []string{"run", "-duration", "-1ms", "../../scenarios/healthy-baseline.yaml"}, 2, "", "duration must be positive"},
		{"run invalid file", []string{"run", "../../internal/scenario/testdata/invalid/unknown-key.yaml"}, 1, "", `unknown key "packets"`},
		{"run failed assertion", []string{"run", "-rate", "1000", "../../scenarios/healthy-baseline.yaml"}, 1, "assert FAIL min_tx", ""},
		{"run committed drill", []string{"run", "../../scenarios/healthy-baseline.yaml"}, 0, "scenario healthy-baseline: PASS", ""},
		{"reconcile dry run", []string{"reconcile", "-plan", "../../scenarios/reconcile-canary.yaml"}, 0, "reconcile plan:", ""},
		{"reconcile without a spec", []string{"reconcile", "-plan", "../../scenarios/node-crash.yaml"}, 1, "", "no spec: block"},
		{"reconcile without -plan", []string{"reconcile", "../../scenarios/reconcile-canary.yaml"}, 2, "", "albatross-sim run scenario.yaml"},
		{"replay-diff missing file", []string{"replay-diff", "no-such-a", "no-such-b"}, 1, "", "no-such-a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout %q does not contain %q", &stdout, tc.wantStdout)
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q does not contain %q", &stderr, tc.wantStderr)
			}
			if tc.code == 1 && tc.wantStderr != "" && strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("failure message is not one line: %q", &stderr)
			}
			if tc.code == 2 && !strings.Contains(strings.ToLower(stderr.String()), "usage:") {
				t.Errorf("bad command line did not print a usage: %q", &stderr)
			}
		})
	}
}

// -cpuprofile writes a profile and leaves stdout as it was.
func TestRunCPUProfile(t *testing.T) {
	drill := "../../scenarios/healthy-baseline.yaml"
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var plain, profiled, stderr bytes.Buffer
	if code := realMain([]string{"run", drill}, &plain, &stderr); code != 0 {
		t.Fatalf("plain run: exit %d: %s", code, &stderr)
	}
	if code := realMain([]string{"run", "-cpuprofile", prof, drill}, &profiled, &stderr); code != 0 {
		t.Fatalf("profiled run: exit %d: %s", code, &stderr)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Error("-cpuprofile changed stdout")
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
}
