package eval

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed1.txt from a serial run")

const goldenPath = "testdata/quick-seed1.txt"

func renderAll(recs []RunRecord) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(r.Result.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// section is one experiment's block of a rendered report.
type section struct {
	line int // 1-based line of the "== id: title ==" header
	text string
}

// splitReport cuts a renderAll report at its "== id: title ==" headers.
func splitReport(report string) map[string]section {
	out := map[string]section{}
	lines := strings.SplitAfter(report, "\n")
	id, start := "", -1
	flush := func(end int) {
		if start >= 0 {
			out[id] = section{line: start + 1, text: strings.Join(lines[start:end], "")}
		}
	}
	for i, l := range lines {
		if strings.HasPrefix(l, "== ") {
			flush(i)
			id, _, _ = strings.Cut(l[len("== "):], ":")
			start = i
		}
	}
	flush(len(lines))
	return out
}

// firstDiff returns the index of the first line where got and want differ,
// with both lines quoted ("(end)" past the last line); ok is false when the
// texts are equal.
func firstDiff(got, want string) (i int, g, w string, ok bool) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(ls []string, i int) string {
		if i < len(ls) {
			return strconv.Quote(ls[i])
		}
		return "(end)"
	}
	for i = 0; i < len(gl) || i < len(wl); i++ {
		if g, w = at(gl, i), at(wl, i); g != w {
			return i, g, w, true
		}
	}
	return 0, "", "", false
}

// TestQuickReportMatchesGolden is the report's content check and the
// determinism contract in one run. Every experiment runs once,
// across eight workers, and its rendered result must equal its section of
// the golden, which -update writes from a serial run — so any moved number,
// renamed row or failed check fails here, and so does any output that
// depends on parallelism. After an intended change re-record with
//
//	go test ./internal/eval -run TestQuickReportMatchesGolden -update
//
// and explain the golden's diff in the change.
func TestQuickReportMatchesGolden(t *testing.T) {
	exps := Experiments()
	cfg := Config{Seed: 1, Quick: true}
	if *update {
		recs := RunAll(exps, cfg, 1)
		for _, rec := range recs {
			if !rec.Result.Passed() {
				t.Fatalf("not writing %s: %s failed a check:\n%s", goldenPath, rec.Exp.ID, rec.Result)
			}
		}
		if err := os.WriteFile(goldenPath, []byte(renderAll(recs)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := splitReport(string(data))
	recs := RunAll(exps, cfg, 8)
	for _, rec := range recs {
		t.Run(rec.Exp.ID, func(t *testing.T) {
			if !rec.Result.Passed() {
				t.Errorf("failed a check:\n%s", rec.Result)
			}
			w, ok := want[rec.Exp.ID]
			if !ok {
				t.Fatalf("%s has no section for %s (re-record with -update)", goldenPath, rec.Exp.ID)
			}
			header, _, _ := strings.Cut(w.text, "\n")
			if i, g, wl, diff := firstDiff(rec.Result.String()+"\n", w.text); diff {
				t.Errorf("%s:%d differs, under %q:\n  got:  %s\n  want: %s",
					goldenPath, w.line+i, header, g, wl)
			}
		})
		delete(want, rec.Exp.ID)
	}
	for id, s := range want {
		t.Errorf("%s:%d holds a section for %q, which is not a registered experiment", goldenPath, s.line, id)
	}
}
