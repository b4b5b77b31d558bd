package trace

import (
	"fmt"
	"strings"
)

// Outcome reports are keyed line sets: each line is "key | values" (see
// cluster.Outcome). Diff matches lines by key, so reports from runs with
// different node counts or fault plans compare structurally — a changed
// value surfaces as a delta under its key, an added or removed node
// surfaces as a one-sided key.

// DiffLine is one key whose value differs between the two reports.
type DiffLine struct {
	Key  string
	A, B string
}

// DiffReport is the structured comparison of two outcome reports.
type DiffReport struct {
	LabelA, LabelB string
	// Changed holds keys present in both reports with different values,
	// in the A report's order.
	Changed []DiffLine
	// OnlyA and OnlyB hold keys present in one report only, in report
	// order.
	OnlyA, OnlyB []string
}

// Empty reports whether the two outcome reports are identical.
func (d *DiffReport) Empty() bool {
	return len(d.Changed) == 0 && len(d.OnlyA) == 0 && len(d.OnlyB) == 0
}

// String renders the stable textual diff report.
func (d *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay diff: %s vs %s\n", d.LabelA, d.LabelB)
	if d.Empty() {
		b.WriteString("  no differences: outcome reports are identical\n")
		return b.String()
	}
	width := len(d.LabelA)
	if len(d.LabelB) > width {
		width = len(d.LabelB)
	}
	for _, c := range d.Changed {
		fmt.Fprintf(&b, "  ~ %s\n", c.Key)
		fmt.Fprintf(&b, "      %-*s | %s\n", width, d.LabelA, c.A)
		fmt.Fprintf(&b, "      %-*s | %s\n", width, d.LabelB, c.B)
	}
	for _, k := range d.OnlyA {
		fmt.Fprintf(&b, "  - %s (only in %s)\n", k, d.LabelA)
	}
	for _, k := range d.OnlyB {
		fmt.Fprintf(&b, "  + %s (only in %s)\n", k, d.LabelB)
	}
	return b.String()
}

// parseOutcome splits an outcome report into (key, value) pairs in report
// order. Lines without the " | " separator (the header line, blanks) are
// keyed by their full text with an empty value, so any textual change in
// them still registers.
func parseOutcome(report string) (keys []string, vals map[string]string) {
	vals = make(map[string]string)
	for _, line := range strings.Split(report, "\n") {
		line = strings.TrimRight(line, " ")
		if line == "" {
			continue
		}
		key, val := line, ""
		if i := strings.Index(line, " | "); i >= 0 {
			key, val = line[:i], line[i+3:]
		}
		if _, dup := vals[key]; !dup {
			keys = append(keys, key)
		}
		vals[key] = val
	}
	return keys, vals
}

// Diff compares two outcome reports line by line, matching lines on the
// key left of " | ". The result is deterministic: ordering follows the
// reports themselves, never map iteration.
func Diff(labelA, reportA, labelB, reportB string) *DiffReport {
	d := &DiffReport{LabelA: labelA, LabelB: labelB}
	keysA, valsA := parseOutcome(reportA)
	keysB, valsB := parseOutcome(reportB)
	for _, k := range keysA {
		vb, ok := valsB[k]
		if !ok {
			d.OnlyA = append(d.OnlyA, k)
			continue
		}
		if va := valsA[k]; va != vb {
			d.Changed = append(d.Changed, DiffLine{Key: k, A: va, B: vb})
		}
	}
	for _, k := range keysB {
		if _, ok := valsA[k]; !ok {
			d.OnlyB = append(d.OnlyB, k)
		}
	}
	return d
}
