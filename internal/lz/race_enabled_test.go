//go:build race

package lz

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation makes the codec speed gate meaningless.
const raceEnabled = true
