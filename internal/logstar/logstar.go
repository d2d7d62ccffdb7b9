// Package logstar provides the small integer-logarithm utilities used
// throughout the coloring algorithms: ceiling base-2 logarithms and
// the iterated logarithm log*.
package logstar

import "math/bits"

// CeilLog2 returns ⌈log₂(x)⌉ for x ≥ 1. CeilLog2(1) = 0.
// It panics if x < 1: the algorithms never take logarithms of
// non-positive quantities and a silent 0 would mask a slack-arithmetic
// bug upstream.
func CeilLog2(x int) int {
	if x < 1 {
		panic("logstar: CeilLog2 of non-positive value")
	}
	return bits.Len(uint(x - 1))
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
