//go:build !race

package lz

const raceEnabled = false
