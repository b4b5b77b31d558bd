package eval

import (
	"strings"
	"testing"
	"time"
)

// TestRunAllOrderAndParallelismClamp covers the harness plumbing on stub
// experiments that finish in reverse order: results come back in input
// order and degenerate parallelism values are clamped rather than rejected.
func TestRunAllOrderAndParallelismClamp(t *testing.T) {
	var subset []Experiment
	for i, id := range []string{"c", "a", "b"} {
		subset = append(subset, Experiment{ID: id, Run: func(Config) *Result {
			time.Sleep(time.Duration(3-i) * time.Millisecond)
			return &Result{ID: id}
		}})
	}
	cfg := Config{Seed: 1, Quick: true}
	for _, par := range []int{0, 1, 16} {
		recs := RunAll(subset, cfg, par)
		if len(recs) != len(subset) {
			t.Fatalf("parallelism %d: got %d records, want %d", par, len(recs), len(subset))
		}
		for i, rec := range recs {
			if rec.Exp.ID != subset[i].ID {
				t.Fatalf("parallelism %d: record %d is %s, want %s", par, i, rec.Exp.ID, subset[i].ID)
			}
			if rec.Result == nil || rec.Result.ID != subset[i].ID {
				t.Fatalf("parallelism %d: record %d result mismatch", par, i)
			}
			if rec.Wall <= 0 {
				t.Fatalf("parallelism %d: record %d has non-positive wall time", par, i)
			}
		}
	}
}

func TestRegistrySorted(t *testing.T) {
	exps := Experiments()
	if len(exps) < 4 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	for i := 1; i < len(exps); i++ {
		if exps[i].ID < exps[i-1].ID {
			t.Fatal("registry not sorted")
		}
	}
	if _, ok := Find("definitely-not-there"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.check("good", true, "ok")
	r.check("bad", false, "boom")
	r.notef("a note")
	out := r.String()
	for _, want := range []string{"check [PASS] good: ok", "check [FAIL] bad: boom", "note: a note", "== x: t =="} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if r.Passed() {
		t.Fatal("Passed with failing check")
	}
}
