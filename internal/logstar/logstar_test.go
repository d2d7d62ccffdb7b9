package logstar

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCeilLog2(t *testing.T) {
	cases := []struct{ x, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {7, 3}, {8, 3}, {9, 4},
		{1023, 10}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := CeilLog2(c.x); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
	// The reference: count the shifts that empty x−1.
	shifts := func(x int) int {
		l := 0
		for v := x - 1; v > 0; v >>= 1 {
			l++
		}
		return l
	}
	check := func(x int) {
		if got, want := CeilLog2(x), shifts(x); got != want {
			t.Fatalf("CeilLog2(%d) = %d, the shift loop gives %d", x, got, want)
		}
	}
	for x := 1; x <= 1<<20; x++ {
		check(x)
	}
	for k := 1; k <= 62; k++ {
		check(1<<k - 1)
		check(1 << k)
		check(1<<k + 1)
	}
}

// floorLog2 returns ⌊log₂(x)⌋ for x ≥ 1: the reference that brackets
// CeilLog2 in TestLogConsistencyQuick.
func floorLog2(x int) int {
	l := -1
	for v := x; v > 0; v >>= 1 {
		l++
	}
	return l
}

func TestFloorLog2(t *testing.T) {
	cases := []struct{ x, want int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1025, 10},
	}
	for _, c := range cases {
		if got := floorLog2(c.x); got != c.want {
			t.Errorf("floorLog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestLogConsistencyQuick(t *testing.T) {
	// For all x ≥ 1: 2^floorLog2(x) ≤ x ≤ 2^CeilLog2(x), and the two
	// differ by at most one (equal exactly at powers of two).
	f := func(raw uint16) bool {
		x := int(raw) + 1
		fl, cl := floorLog2(x), CeilLog2(x)
		if 1<<uint(fl) > x || x > 1<<uint(cl) {
			return false
		}
		if x&(x-1) == 0 { // power of two
			return fl == cl
		}
		return cl == fl+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogStar(t *testing.T) {
	cases := []struct{ x, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 3}, {17, 4},
		{65536, 4}, {65537, 5},
	}
	for _, c := range cases {
		if got := LogStar(c.x); got != c.want {
			t.Errorf("LogStar(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

// logStarFloat is the real-valued definition of log*, iterating
// math.Log2 in float64: the reference LogStar's integer loop must
// match.
func logStarFloat(x int) int {
	n := 0
	for v := float64(x); v > 1; v = math.Log2(v) {
		n++
	}
	return n
}

// TestLogStarMatchesFloat checks the integer LogStar against the
// float reference on every int in [-5, 2²⁰], around every power of
// two an int holds, and at the ends of the int range.
func TestLogStarMatchesFloat(t *testing.T) {
	check := func(x int) {
		if got, want := LogStar(x), logStarFloat(x); got != want {
			t.Errorf("LogStar(%d) = %d, float reference %d", x, got, want)
		}
	}
	for x := -5; x <= 1<<20; x++ {
		check(x)
	}
	for k := 0; k < 63; k++ {
		check(1<<k - 1)
		check(1 << k)
		check(1<<k + 1)
	}
	check(math.MaxInt)
	check(math.MinInt)
}

// tower returns 2↑↑k (k twos) for 0 ≤ k ≤ 5, the functional inverse
// of LogStar that TestTowerLogStarInverse checks it against.
func tower(k int) int {
	v := 1
	for i := 0; i < k; i++ {
		v = 1 << uint(v)
	}
	return v
}

func TestTower(t *testing.T) {
	want := []int{1, 2, 4, 16, 65536}
	for k, w := range want {
		if got := tower(k); got != w {
			t.Errorf("tower(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestTowerLogStarInverse(t *testing.T) {
	// LogStar(tower(k)) == k for k in the representable range.
	for k := 0; k <= 4; k++ {
		if got := LogStar(tower(k)); got != k {
			t.Errorf("LogStar(tower(%d)) = %d, want %d", k, got, k)
		}
	}
}

func TestCeilLog2PanicsOnNonPositive(t *testing.T) {
	for _, x := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CeilLog2(%d) did not panic", x)
				}
			}()
			CeilLog2(x)
		}()
	}
}
