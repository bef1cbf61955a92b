//go:build !race

package alloctest

// Race reports a -race build: the race detector allocates for its own
// bookkeeping, so a test that pins an exact count of objects may skip
// under it.
const Race = false
