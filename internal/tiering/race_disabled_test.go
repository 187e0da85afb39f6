//go:build !race

package tiering

const raceEnabled = false
