//go:build !race

package sharedcache

const raceEnabled = false
