// Package vclock provides the virtual-time foundation for the Dyn-MPI
// simulator: a nanosecond-resolution virtual Time, per-node Clocks, and a
// deterministic PRNG used wherever the model needs reproducible "noise"
// (context-switch spikes, particle motion, sparse-matrix structure).
//
// All simulated costs in the repository are expressed in virtual
// nanoseconds of a reference CPU (power 1.0). A node of power p executes a
// cost c in c/p virtual wall nanoseconds when unloaded; competing processes
// further inflate wall time (see internal/cluster).
package vclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since the start of a run.
type Time int64

// Duration is a span of virtual time in nanoseconds. Durations and Times
// share a representation; the distinct types keep call sites honest.
type Duration int64

// Common durations, mirroring package time's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Duration, rounding to
// the nearest nanosecond.
func FromSeconds(s float64) Duration { return Duration(math.Round(s * float64(Second))) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// String renders a Time with second resolution for logs, e.g. "12.345s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// String renders a Duration, e.g. "1.250ms" or "3.200s".
func (d Duration) String() string {
	switch {
	case d < Duration(2*Microsecond) && d > -Duration(2*Microsecond):
		return fmt.Sprintf("%dns", int64(d))
	case d < Duration(2*Millisecond) && d > -Duration(2*Millisecond):
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d < Duration(2*Second) && d > -Duration(2*Second):
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Clock is a single monotone virtual clock. The zero Clock starts at time 0.
type Clock struct {
	now Time
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative advances panic: a clock
// moving backwards indicates a causality bug in the caller, not a condition
// to tolerate.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now += Time(d)
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later; it never moves the
// clock backwards. It reports the resulting time.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Set forces the clock to exactly t, which must not be earlier than the
// current time. It is used by collectives that leave every participant at a
// common completion time.
func (c *Clock) Set(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("vclock: Set would move clock backwards (%v -> %v)", c.now, t))
	}
	c.now = t
}

// PRNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Every source of modelled nondeterminism in the simulator is
// seeded explicitly so whole experiments replay bit-identically.
type PRNG struct {
	state uint64
}

// NewPRNG returns a generator seeded with seed.
func NewPRNG(seed uint64) *PRNG { return &PRNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (p *PRNG) Uint64() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("vclock: Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Fork derives an independent generator from this one, keyed by id. Two
// forks with different ids produce unrelated streams; the parent stream is
// not consumed.
func (p *PRNG) Fork(id uint64) *PRNG {
	return NewPRNG(p.state ^ (id+1)*0xd6e8feb86659fd93)
}
