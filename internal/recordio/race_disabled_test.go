//go:build !race

package recordio

const raceEnabled = false
