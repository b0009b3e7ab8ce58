//go:build race

package master

// raceEnabled reports a build under the race detector, which slows the
// model test about fivefold; it then runs an eighth of its steps.
const raceEnabled = true
