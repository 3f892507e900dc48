//go:build race

package eisvc

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
