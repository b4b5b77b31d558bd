package eval

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docIDs returns the IDs EXPERIMENTS.md claims: the first cell of every
// "| `id` |" table row, and every `id` inside the parentheses of a heading
// such as "## Fig. 13/14 — Tenant overload rate limiting (`fig13`, `fig14`)".
func docIDs(doc string) []string {
	row := regexp.MustCompile("^\\| `([a-z0-9][a-z0-9-]*)` \\|")
	paren := regexp.MustCompile(`\(([^()]*)\)`)
	tick := regexp.MustCompile("`([a-z0-9][a-z0-9-]*)`")
	var ids []string
	for _, line := range strings.Split(doc, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			ids = append(ids, m[1])
		}
		if !strings.HasPrefix(line, "#") {
			continue
		}
		for _, p := range paren.FindAllStringSubmatch(line, -1) {
			for _, m := range tick.FindAllStringSubmatch(p[1], -1) {
				ids = append(ids, m[1])
			}
		}
	}
	return ids
}

// TestExperimentsDocMatchesRegistry keeps EXPERIMENTS.md in step with the
// code: every registered experiment has a row or heading there, and every
// row or heading ID names a registered experiment or a committed
// scenarios/<id>.yaml drill.
func TestExperimentsDocMatchesRegistry(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	ids := docIDs(string(doc))
	listed := map[string]bool{}
	for _, id := range ids {
		listed[id] = true
		if _, ok := Find(id); ok {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, "scenarios", id+".yaml")); err != nil {
			t.Errorf("EXPERIMENTS.md names %q: no registered experiment and no scenarios/%s.yaml", id, id)
		}
	}
	for _, e := range Experiments() {
		if !listed[e.ID] {
			t.Errorf("experiment %q is registered but has no row or heading in EXPERIMENTS.md", e.ID)
		}
	}
}
