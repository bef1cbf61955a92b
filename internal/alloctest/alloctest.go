// Package alloctest is the module's one way to count heap allocations made
// across goroutines. Its callers are tests: a rank is a goroutine, so a
// world's allocations are only visible in the process-wide malloc count,
// which testing.AllocsPerRun cannot attribute to a function that spawns
// goroutines of its own.
//
// A process-wide count is only as quiet as the scheduler lets it be. With
// more than one P, a goroutine that parks on another P than the one it last
// ran on refills that P's sudog cache, and a sync.Pool Get on a P that
// never saw the matching Put misses and allocates. Neither is the measured
// code's doing, and both vary from run to run. Mallocs therefore runs the
// measured function on one P with the collector held off, the same reason
// testing.AllocsPerRun pins GOMAXPROCS(1).
package alloctest

import (
	"runtime"
	"runtime/debug"
)

// Mallocs reports how many heap objects the whole process allocated while
// f ran. It collects first, then runs f with GOMAXPROCS(1) and the garbage
// collector off, and restores both settings when f returns or exits. f
// must wait for the goroutines it starts: one still exiting when f returns
// holds a g the next measured run may have to allocate afresh.
func Mallocs(f func()) uint64 {
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Extra reports what k more repetitions cost: run(2k)'s mallocs less
// run(k)'s, after one warm-up run(k). Whatever run does once — build a
// world, fill its pools, tear it down — is common to both and cancels, so
// an allocation-free repetition reads near 0 and one object per repetition
// reads k. The warm-up runs on one P too, so the caches the short run
// starts from are the ones the long run starts from.
func Extra(k int, run func(k int)) int64 {
	Mallocs(func() { run(k) })
	short := Mallocs(func() { run(k) })
	long := Mallocs(func() { run(2 * k) })
	return int64(long) - int64(short)
}
