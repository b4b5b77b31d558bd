//go:build race

package eval

// raceEnabled reports whether the race detector is instrumenting this
// build. Volatile wall-clock experiments assert on relative timings that
// the detector's per-access instrumentation distorts beyond their
// tolerances, so TestVolatileExperimentsPass runs them under -race without
// requiring their checks.
const raceEnabled = true
