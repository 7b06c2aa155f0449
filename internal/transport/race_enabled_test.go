//go:build race

package transport

// raceEnabled skips allocation-budget assertions: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
