//go:build reach

// The reachability gate: every exported function or method declared in
// non-test internal/ code must be linked into at least one main package of
// the module (cmd/*, examples/*, bench), or be named in
// internal/reach-allow.txt with the contract that keeps it. A line there
// that names a symbol which is reached, or no longer declared, fails too.
//
//	go test -tags reach -run TestReach -count=1 .
//
// Reachability is the linker's own: each main is linked with
// -ldflags=-dumpdep, which prints every edge its dead-code pass follows, and
// -gcflags=all=-l, so no inlined function drops out of that dump.
package albatross_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const reachAllowFile = "internal/reach-allow.txt"

func TestReachability(t *testing.T) {
	if problems := reachProblems(t, nil); len(problems) > 0 {
		t.Errorf("reach gate: %d problem(s):\n%s", len(problems), strings.Join(problems, "\n"))
	}
}

// The gate's self-test: the tree is never edited; a `go build -overlay`
// plants the faults and the gate must name each one.
func TestReachGateCatchesPlantedFaults(t *testing.T) {
	allow, err := os.ReadFile(reachAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	stale := string(allow) +
		"packet.FiveTuple.Hash  stale: every binary reaches it\n" +
		"packet.NoSuchSymbol  stale: never declared\n"
	problems := reachProblems(t, map[string]string{
		"internal/packet/planted.go": "package packet\n\n// PlantedUnreached is linked by no binary.\nfunc PlantedUnreached() int { return 1 }\n",
		reachAllowFile:               stale,
	})
	for _, want := range []string{
		"unreached: packet.PlantedUnreached",
		"allowlisted but reached: packet.FiveTuple.Hash",
		"allowlisted but not declared: packet.NoSuchSymbol",
	} {
		found := false
		for _, p := range problems {
			found = found || strings.HasPrefix(p, want)
		}
		if !found {
			t.Errorf("gate did not report %q; it reported:\n%s", want, strings.Join(problems, "\n"))
		}
	}
}

// TestReachDumpQuirks pins how linker symbols are matched to declarations.
func TestReachDumpQuirks(t *testing.T) {
	const p = "example.com/pkg"
	if got := stripShapes(p + ".(*Ring[go.shape.struct { a []uint8 }]).Enqueue"); got != p+".(*Ring).Enqueue" {
		t.Errorf("generic method: %s", got)
	}
	if got := stripShapes(p + ".New[go.shape.int]"); got != p+".New" {
		t.Errorf("generic function: %s", got)
	}
	linked := map[string]bool{p + ".(*T).Value": true, p + ".(*T).M.opendefer": true}
	if !reached(linked, p+".T.Value") {
		t.Error("a value-receiver method kept only through its pointer wrapper reads unreached")
	}
	if reached(linked, p+".(*T).M") {
		t.Error("a deduplicated alias of (*T).M reads as (*T).M itself")
	}
}

// reachProblems runs the gate over the tree as seen through overlay (repo
// path → replacement content; nil for the tree as it is) and returns one
// line per problem.
func reachProblems(t *testing.T, overlay map[string]string) []string {
	t.Helper()
	ov := newOverlay(t, overlay)

	var mains []string
	var declared = map[string]string{} // linker symbol → allowlist name
	for _, p := range ov.list(t) {
		switch {
		case p.Name == "main":
			mains = append(mains, p.ImportPath)
		case strings.Contains(p.ImportPath, "/internal/"):
			short := p.ImportPath[strings.Index(p.ImportPath, "/internal/")+len("/internal/"):]
			for _, f := range p.GoFiles {
				for sym, name := range exportedFuncs(t, ov.read(t, filepath.Join(p.Dir, f)), p.ImportPath, short) {
					declared[sym] = name
				}
			}
		}
	}
	if len(mains) == 0 || len(declared) == 0 {
		t.Fatalf("found %d main packages and %d exported internal functions", len(mains), len(declared))
	}
	linked := ov.linkedSymbols(t, mains)

	allowed := map[string]bool{}
	var problems []string
	sc := bufio.NewScanner(bytes.NewReader(ov.read(t, reachAllowFile)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, "allowlist line gives no reason: "+name)
		}
		allowed[name] = true
	}
	names := map[string]bool{}
	for sym, name := range declared {
		names[name] = true
		if reached(linked, sym) {
			if allowed[name] {
				problems = append(problems, "allowlisted but reached: "+name)
			}
		} else if !allowed[name] {
			problems = append(problems, "unreached: "+name+" (delete it, or name its contract in "+reachAllowFile+")")
		}
	}
	for name := range allowed {
		if !names[name] {
			problems = append(problems, "allowlisted but not declared: "+name)
		}
	}
	sort.Strings(problems)
	t.Logf("%d exported internal functions and methods, %d main packages, %d allowlisted", len(declared), len(mains), len(allowed))
	return problems
}

// reached reports whether the linker kept sym. A value-receiver method
// T.M also counts as reached when only its pointer wrapper (*T).M was kept.
func reached(linked map[string]bool, sym string) bool {
	if linked[sym] {
		return true
	}
	dot := strings.LastIndexByte(sym, '.')
	typ := sym[:dot]
	pkgDot := strings.LastIndexByte(typ, '.')
	if pkgDot < 0 || strings.Contains(typ[pkgDot:], "(") {
		return false
	}
	return linked[typ[:pkgDot]+".(*"+typ[pkgDot+1:]+")"+sym[dot:]]
}

// exportedFuncs returns the exported functions and methods of one file,
// keyed by the linker's symbol name (importPath.F, importPath.T.M or
// importPath.(*T).M), each mapped to its allowlist name (short.F …).
func exportedFuncs(t *testing.T, src []byte, importPath, short string) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil {
			typ := fn.Recv.List[0].Type
			ptr := false
			if st, ok := typ.(*ast.StarExpr); ok {
				typ, ptr = st.X, true
			}
			switch g := typ.(type) { // a generic receiver T[P] is T to the linker
			case *ast.IndexExpr:
				typ = g.X
			case *ast.IndexListExpr:
				typ = g.X
			}
			name = typ.(*ast.Ident).Name + "." + name
			if ptr {
				name = "(*" + strings.Replace(name, ".", ").", 1)
			}
		}
		out[importPath+"."+name] = short + "." + name
	}
	return out
}

// stripShapes drops the bracketed type arguments a generic instantiation
// carries: ring.(*Ring[go.shape.int]).Enqueue becomes ring.(*Ring).Enqueue.
func stripShapes(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// overlay is a `go build -overlay` file plus the map it was written from,
// so the gate reads planted or replaced files exactly as the toolchain does.
type overlay struct {
	root    string
	replace map[string]string // absolute repo path → replacement file
	flag    []string
}

func newOverlay(t *testing.T, files map[string]string) *overlay {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	ov := &overlay{root: root, replace: map[string]string{}}
	if len(files) == 0 {
		return ov
	}
	dir := t.TempDir()
	i := 0
	for path, content := range files {
		repl := filepath.Join(dir, fmt.Sprintf("f%d", i))
		i++
		if err := os.WriteFile(repl, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		ov.replace[filepath.Join(root, path)] = repl
	}
	js, err := json.Marshal(map[string]any{"Replace": ov.replace})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(file, js, 0o644); err != nil {
		t.Fatal(err)
	}
	ov.flag = []string{"-overlay=" + file}
	return ov
}

func (ov *overlay) read(t *testing.T, path string) []byte {
	t.Helper()
	if !filepath.IsAbs(path) {
		path = filepath.Join(ov.root, path)
	}
	if repl, ok := ov.replace[path]; ok {
		path = repl
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type listedPackage struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

func (ov *overlay) list(t *testing.T) []listedPackage {
	t.Helper()
	out := ov.goCmd(t, false, append(append([]string{"list", "-json"}, ov.flag...), "./...")...)
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// linkedSymbols links every main package with the linker's dependency dump
// on and returns the set of symbols it kept, generic shapes stripped.
func (ov *overlay) linkedSymbols(t *testing.T, mains []string) map[string]bool {
	t.Helper()
	args := append([]string{"build", "-o", t.TempDir(), "-gcflags=all=-l", "-ldflags=-dumpdep"}, ov.flag...)
	out := ov.goCmd(t, true, append(args, mains...)...)
	linked := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range [2]string{from, to} {
			if strings.Contains(sym, "/internal/") {
				linked[stripShapes(sym)] = true
			}
		}
	}
	return linked
}

// goCmd runs the go command in the module root and returns its stdout, or
// with stderr, where the linker's dump goes, interleaved in when combined.
func (ov *overlay) goCmd(t *testing.T, combined bool, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = ov.root
	var out []byte
	var err error
	if combined {
		out, err = cmd.CombinedOutput()
	} else {
		out, err = cmd.Output()
	}
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out
}
