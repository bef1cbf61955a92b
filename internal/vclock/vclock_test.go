package vclock

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var tm Time
	tm = tm.Add(Duration(3 * Second))
	if tm.Seconds() != 3 {
		t.Fatalf("Seconds = %v, want 3", tm.Seconds())
	}
	if d := tm.Sub(Time(Second)); d != Duration(2*Second) {
		t.Fatalf("Sub = %v, want 2s", d)
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1e-9, 0.001, 1, 37.5, 12345.678} {
		d := FromSeconds(s)
		if got := d.Seconds(); got < s-1e-9 || got > s+1e-9 {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max broken")
	}
}

func TestClockMonotone(t *testing.T) {
	var c Clock
	c.Advance(Duration(5))
	c.AdvanceTo(3) // earlier: must be a no-op
	if c.Now() != 5 {
		t.Fatalf("AdvanceTo moved clock backwards: %v", c.Now())
	}
	c.AdvanceTo(9)
	if c.Now() != 9 {
		t.Fatalf("AdvanceTo = %v, want 9", c.Now())
	}
	c.Set(9) // equal is allowed
	c.Set(12)
	if c.Now() != 12 {
		t.Fatalf("Set = %v, want 12", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockSetBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	var c Clock
	c.Advance(Duration(10))
	c.Set(5)
}

func TestPRNGDeterministic(t *testing.T) {
	a, b := NewPRNG(42), NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewPRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewPRNG(42).Fork(uint64(i)).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds suspiciously correlated: %d matches", same)
	}
}

func TestPRNGFloat64Range(t *testing.T) {
	p := NewPRNG(7)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPRNGIntn(t *testing.T) {
	p := NewPRNG(11)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := p.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("Intn bucket %d count %d is far from uniform", i, c)
		}
	}
}

func TestPRNGForkIndependence(t *testing.T) {
	p := NewPRNG(99)
	f1 := p.Fork(1)
	f2 := p.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks with different ids produced identical first values")
	}
	// Forking must not consume parent state.
	q := NewPRNG(99)
	if p.Uint64() != q.Uint64() {
		t.Fatal("Fork consumed parent state")
	}
}

// Property: clock advancement is associative with duration addition.
func TestClockAdvanceProperty(t *testing.T) {
	f := func(steps []uint32) bool {
		var c Clock
		var total Duration
		for _, s := range steps {
			d := Duration(s)
			total += d
			c.Advance(d)
		}
		return c.Now() == Time(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Max picks an argument, is the built-in max, and is no less
// than the built-in min.
func TestMaxMinProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		mx := Max(x, y)
		return (mx == x || mx == y) && mx == max(x, y) && min(x, y) <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{Duration(15 * Microsecond), "15.000us"},
		{Duration(3 * Millisecond), "3.000ms"},
		{Duration(4 * Second), "4.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}
