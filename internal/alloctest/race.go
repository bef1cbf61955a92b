//go:build race

package alloctest

// Race reports a -race build: the race detector allocates for its own
// bookkeeping and makes sync.Pool drop a quarter of its Puts, so a test that
// counts objects through either may skip under it.
const Race = true
