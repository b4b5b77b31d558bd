package albatross_test

import (
	"path/filepath"
	"strings"
	"testing"

	"albatross"
)

// TestCommittedScenariosLoad load-checks every drill under scenarios/ — the
// files `make gameday` executes — so an edit that the strict loader rejects
// fails `go test`, not only the gate.
func TestCommittedScenariosLoad(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenarios/*.yaml found")
	}
	for _, f := range files {
		s, err := albatross.LoadScenarioFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if want := strings.TrimSuffix(filepath.Base(f), ".yaml"); s.Name != want {
			t.Errorf("%s: name %q, want the file's base name %q", f, s.Name, want)
		}
		if len(s.Assertions) == 0 {
			t.Errorf("%s: declares no assertions", f)
		}
	}
}
