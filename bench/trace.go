package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// harness around a call into the program. Start and End are nanoseconds
// since the log was created; Parent indexes the enclosing span (-1 = root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps a run's spans in memory; write dumps them at exit. Set-up
// phases are always recorded (a handful of spans); per-batch spans only on
// blocks the caller marks traced.
type spanLog struct {
	Run   string `json:"run"` // "<workload>-seed<n>"
	Spans []span `json:"spans"`
	// tracing is true on a --trace 1 run.
	tracing bool
	t0      time.Time
}

func newSpanLog(run string, tracing bool) *spanLog {
	return &spanLog{Run: run, tracing: tracing, t0: time.Now()}
}

// begin opens a span and returns its index; end closes it.
func (l *spanLog) begin(name string, parent int) int {
	l.Spans = append(l.Spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: parent})
	return len(l.Spans) - 1
}

func (l *spanLog) end(i int) { l.Spans[i].End = int64(time.Since(l.t0)) }

// add records a finished span from two clock reads the caller already has.
func (l *spanLog) add(name string, parent int, from, to time.Time) {
	l.Spans = append(l.Spans, span{Name: name, Start: int64(from.Sub(l.t0)), End: int64(to.Sub(l.t0)), Parent: parent})
}

// total sums the durations of every span with the given name.
func (l *spanLog) total(name string) time.Duration {
	var d int64
	for i := range l.Spans {
		if l.Spans[i].Name == name {
			d += l.Spans[i].End - l.Spans[i].Start
		}
	}
	return time.Duration(d)
}

// last returns the duration of the most recent span with the given name
// (0 when there is none).
func (l *spanLog) last(name string) time.Duration {
	for i := len(l.Spans) - 1; i >= 0; i-- {
		if l.Spans[i].Name == name {
			return time.Duration(l.Spans[i].End - l.Spans[i].Start)
		}
	}
	return 0
}

// write dumps the log to <dir>/out/trace-<workload>.json.
func (l *spanLog) write(dir, workload string) (string, error) {
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	path := filepath.Join(out, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
