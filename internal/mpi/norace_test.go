//go:build !race

package mpi

// raceEnabled reports a -race build.
const raceEnabled = false
