package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"albatross/internal/errs"
)

// FuzzLoadScenario throws arbitrary documents at the scenario loader. The
// contract under fuzz: never panic, and reject every malformed document
// with an error wrapping the errs.BadConfig sentinel. Accepted documents
// must re-validate cleanly (Load already validates, so Validate on the
// result is idempotent).
func FuzzLoadScenario(f *testing.F) {
	f.Add([]byte(fullDoc))
	f.Add([]byte("name: x\nduration: 10ms\nworkload:\n  flows: 10\n  rate: 1e5\n"))
	f.Add([]byte(""))
	f.Add([]byte("- a\n- b\n"))
	f.Add([]byte("name: \"quo\\\"ted\"\nduration: 1ms\n"))
	f.Add([]byte("a:\n  b:\n    c: [1, 2]\n"))
	f.Add([]byte("events:\n  - at: 1ms\n    action: inject_failure\n"))
	f.Add([]byte("name: x\n\tduration: 1ms\n"))
	f.Add([]byte("assertions:\n  - type: byte_identity\n    shards: [1, 4]\n"))
	f.Add([]byte("name: x # comment\nduration: 5ms # also\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(data)
		if err != nil {
			if !errors.Is(err, errs.BadConfig) {
				t.Fatalf("rejection %v does not wrap errs.BadConfig", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted scenario fails re-validation: %v", err)
		}
	})
}

// FuzzLoadSpec throws arbitrary documents at the desired-state decoder, each
// loaded as the spec: block of a minimal scenario (specScenario). The
// contract under fuzz: never panic, reject every malformed block with an
// error wrapping errs.BadConfig, and round-trip every accepted spec — it
// passes its own validation again, and rendered back to a block it loads to
// the same spec. Seeds beyond the ones added here live in
// testdata/fuzz/FuzzLoadSpec; those naming a backend test its rejection.
func FuzzLoadSpec(f *testing.F) {
	f.Add([]byte("interval: 2ms\nsteps_per_tick: 3\nmembers:\n  - weight: 0.25\n    pods: 2\n    backend: session\n  - default\n  - admin: drained\n  - admin: removed\n"))
	f.Add([]byte("members:\n  - default\n"))
	f.Add([]byte("members: []\n"))
	f.Add([]byte("members:\n  - weight: 1e-3\n  - weight: -0\n"))
	f.Add([]byte("interval: 1h\nmembers:\n  - pods: 9999999999\n"))
	f.Add([]byte("members:\n  - admin: removed\n    backend: session\n"))
	f.Add([]byte("members:\n  -\n"))
	f.Add([]byte("interval: 2ms\nsteps_per_tick: 3\nmembers:\n  - weight: 0.25\n    pods: 2\n  - default\n  - admin: drained\n  - admin: removed\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := loadSpec(data)
		if err != nil {
			if !errors.Is(err, errs.BadConfig) {
				t.Fatalf("rejection %v does not wrap errs.BadConfig", err)
			}
			return
		}
		if err := r.validate(1); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		doc := renderSpec(r)
		again, err := loadSpec([]byte(doc))
		if err != nil {
			t.Fatalf("accepted spec renders to a rejected block: %v\n%s", err, doc)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("spec round trip: %+v, want %+v\n%s", again, r, doc)
		}
	})
}

// renderSpec writes r as a spec: block's body, omitting zero fields (a
// decoded absent key) and writing an all-zero member as "default".
func renderSpec(r *ReconcileSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval: %dns\nsteps_per_tick: %d\nmembers:\n", int64(r.Interval), r.StepsPerTick)
	for _, m := range r.Members {
		var fields []string
		if m.Weight != 0 {
			fields = append(fields, "weight: "+strconv.FormatFloat(m.Weight, 'g', -1, 64))
		}
		if m.Pods != 0 {
			fields = append(fields, "pods: "+strconv.Itoa(m.Pods))
		}
		if m.Admin != "" {
			fields = append(fields, "admin: "+m.Admin)
		}
		if len(fields) == 0 {
			fields = []string{"default"}
		}
		b.WriteString("  - " + strings.Join(fields, "\n    ") + "\n")
	}
	return b.String()
}
