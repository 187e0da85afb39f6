//go:build race

package tiering

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates and so voids the allocs/op pins.
const raceEnabled = true
