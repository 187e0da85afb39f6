//go:build race

package storage

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates and so voids the allocs/op pins.
const raceEnabled = true
