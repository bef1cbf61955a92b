//go:build !race

package core

// raceEnabled reports a -race build.
const raceEnabled = false
