package eval

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docID is an ID EXPERIMENTS.md claims, with the text that must name where a
// moved ID's check lives: its table row, or its heading's whole section.
type docID struct {
	id      string
	context string
}

// docSection is one "#" heading of EXPERIMENTS.md and the lines under it up
// to the next heading.
type docSection struct {
	ids   []docID
	heads []string // IDs inside the heading's parentheses
	body  []string
}

// docSections cuts EXPERIMENTS.md at its headings and collects the IDs it
// claims: the first cell of every "| `id` |" table row, and every `id`
// inside the parentheses of a heading such as "## Fig. 13/14 — Tenant
// overload rate limiting (`fig13`, `fig14`)".
func docSections(doc string) []*docSection {
	row := regexp.MustCompile("^\\| `([a-z0-9][a-z0-9-]*)` \\|")
	paren := regexp.MustCompile(`\(([^()]*)\)`)
	tick := regexp.MustCompile("`([a-z0-9][a-z0-9-]*)`")
	secs := []*docSection{{}}
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") {
			sec := &docSection{}
			for _, p := range paren.FindAllStringSubmatch(line, -1) {
				for _, m := range tick.FindAllStringSubmatch(p[1], -1) {
					sec.heads = append(sec.heads, m[1])
				}
			}
			secs = append(secs, sec)
			continue
		}
		sec := secs[len(secs)-1]
		sec.body = append(sec.body, line)
		if m := row.FindStringSubmatch(line); m != nil {
			sec.ids = append(sec.ids, docID{m[1], line})
		}
	}
	for _, sec := range secs {
		for _, id := range sec.heads {
			sec.ids = append(sec.ids, docID{id, strings.Join(sec.body, "\n")})
		}
	}
	return secs
}

// holderRef matches a backquoted Example or Benchmark name, optionally
// package-qualified: `nicsim.ExampleLatencyModel`, `BenchmarkMetaPlacement`.
var holderRef = regexp.MustCompile("`((?:[a-z0-9]+\\.)?(?:Example|Benchmark)\\w*)`")

// testFuncs returns every Example and Benchmark function the module's
// _test.go files declare, both bare and qualified by their directory's name.
func testFuncs(t *testing.T, root string) map[string]bool {
	decl := regexp.MustCompile(`(?m)^func ((?:Example|Benchmark)\w*)\(`)
	out := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = true
			out[filepath.Base(filepath.Dir(path))+"."+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExperimentsDocMatchesRegistry keeps EXPERIMENTS.md in step with the
// code: every registered experiment has a row or heading there, and every
// row or heading ID names a registered experiment, a committed
// scenarios/<id>.yaml drill, or an ID whose check moved out of the report —
// then its row or section names the Example or Benchmark that holds it.
func TestExperimentsDocMatchesRegistry(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	holders := testFuncs(t, root)
	listed := map[string]bool{}
	for _, sec := range docSections(string(doc)) {
		for _, id := range sec.ids {
			listed[id.id] = true
			if _, ok := Find(id.id); ok {
				continue
			}
			if _, err := os.Stat(filepath.Join(root, "scenarios", id.id+".yaml")); err == nil {
				continue
			}
			// A moved id: the paper arithmetic or host timing it stood for
			// lives in an Example or Benchmark, which its row or section names.
			named := holderRef.FindAllStringSubmatch(id.context, -1)
			if len(named) == 0 {
				t.Errorf("EXPERIMENTS.md names %q: no registered experiment, no scenarios/%s.yaml, and no Example or Benchmark beside it", id.id, id.id)
			}
			for _, m := range named {
				if !holders[m[1]] {
					t.Errorf("EXPERIMENTS.md points %q at %s, which no _test.go file declares", id.id, m[1])
				}
			}
		}
	}
	for _, e := range Experiments() {
		if !listed[e.ID] {
			t.Errorf("experiment %q is registered but has no row or heading in EXPERIMENTS.md", e.ID)
		}
	}
}

// TestExperimentsDocNumbersMatchReport holds EXPERIMENTS.md's tables to the
// committed full-scale report, running nothing: under a heading that names
// registered experiments, every numeric table cell must equal, at its printed
// precision, a number in those experiments' sections of
// experiments_output.txt.
func TestExperimentsDocNumbersMatchReport(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sections := splitReport(string(report))
	number := regexp.MustCompile(`\d+(?:\.\d+)?`)
	cell := regexp.MustCompile(`^(\d[\d,]*(?:\.\d+)?) ?(?:%|µs|ms|ns|MB|×)?$`)
	for _, sec := range docSections(string(doc)) {
		var nums []float64
		for _, id := range sec.heads {
			if _, ok := Find(id); !ok {
				continue
			}
			s, ok := sections[id]
			if !ok {
				t.Errorf("experiments_output.txt has no section for %s", id)
			}
			for _, n := range number.FindAllString(s.text, -1) {
				v, _ := strconv.ParseFloat(n, 64)
				nums = append(nums, v)
			}
		}
		if nums == nil {
			continue
		}
		for _, line := range sec.body {
			if !strings.HasPrefix(line, "|") {
				continue
			}
			for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
				m := cell.FindStringSubmatch(strings.TrimSpace(c))
				if m == nil {
					continue
				}
				digits := strings.ReplaceAll(m[1], ",", "")
				want, _ := strconv.ParseFloat(digits, 64)
				decimals := 0
				if i := strings.IndexByte(digits, '.'); i >= 0 {
					decimals = len(digits) - i - 1
				}
				half := 0.5*math.Pow10(-decimals) + 1e-9
				found := false
				for _, v := range nums {
					if math.Abs(v-want) <= half {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("EXPERIMENTS.md (%s): cell %q in %q is no number of the report's section at its precision",
						strings.Join(sec.heads, ", "), strings.TrimSpace(c), line)
				}
			}
		}
	}
}
