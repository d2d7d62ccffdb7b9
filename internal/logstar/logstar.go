// Package logstar provides the small integer-logarithm utilities used
// throughout the coloring algorithms: ceiling base-2 logarithms, the
// iterated logarithm log*, and the tower function that inverts it.
package logstar

// CeilLog2 returns ⌈log₂(x)⌉ for x ≥ 1. CeilLog2(1) = 0.
// It panics if x < 1: the algorithms never take logarithms of
// non-positive quantities and a silent 0 would mask a slack-arithmetic
// bug upstream.
func CeilLog2(x int) int {
	if x < 1 {
		panic("logstar: CeilLog2 of non-positive value")
	}
	l := 0
	for v := x - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// FloorLog2 returns ⌊log₂(x)⌋ for x ≥ 1. FloorLog2(1) = 0.
func FloorLog2(x int) int {
	if x < 1 {
		panic("logstar: FloorLog2 of non-positive value")
	}
	l := -1
	for v := x; v > 0; v >>= 1 {
		l++
	}
	return l
}

// LogStar returns log*(x): the number of times the (real-valued) log₂
// must be iterated, starting from x, before the result is at most 1.
// LogStar(x) = 0 for x ≤ 1, LogStar(2) = 1, LogStar(16) = 3,
// LogStar(65536) = 4.
//
// It iterates the integer ⌈log₂⌉ instead of the real log₂, with the
// same count: log* of a real y > 0 equals log* of ⌈y⌉, because log*
// steps up only just past the tower values 2↑↑k, which are integers.
func LogStar(x int) int {
	n := 0
	for v := x; v > 1; v = CeilLog2(v) {
		n++
	}
	return n
}

// Tower returns the tower function 2↑↑k (2^2^...^2, k twos), the
// functional inverse of LogStar. It panics for k that would overflow a
// 64-bit int (k ≥ 6).
func Tower(k int) int {
	if k < 0 {
		panic("logstar: Tower of negative height")
	}
	if k >= 6 {
		panic("logstar: Tower overflows int64")
	}
	v := 1
	for i := 0; i < k; i++ {
		v = 1 << uint(v)
	}
	return v
}

// Pow returns base^exp for non-negative exp using integer
// exponentiation by squaring. It does not guard against overflow; the
// callers use it only for small color-space arithmetic.
func Pow(base, exp int) int {
	if exp < 0 {
		panic("logstar: Pow with negative exponent")
	}
	result := 1
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}
