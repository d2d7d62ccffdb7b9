// Package gf implements the modest finite-field toolkit that the
// Linial-style color-reduction algorithms need: prime selection and a
// division-free reduction modulo a prime q, with which a color's
// base-q digit polynomial is evaluated over F_q.
//
// The color-reduction step of [Lin87] (and its defect-tolerant variant
// from [Kuh09, KS18]) identifies each current color m with the
// polynomial over F_q whose coefficients are the base-q digits of m.
// A node's new color is a point-value pair (a, f_m(a)) ∈ F_q × F_q,
// encoded as the integer a·q + f_m(a). Two distinct polynomials of
// degree ≤ d agree on at most d points, which is the combinatorial
// heart of the reduction.
package gf

import (
	"math"
	"math/bits"
)

// NextPrime returns the smallest prime ≥ n, which is 2 for every
// n ≤ 2. It panics for n > 2^31 (the color spaces in this library
// never get anywhere near that).
func NextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	if n > 1<<31 {
		panic("gf: NextPrime argument out of supported range")
	}
	candidate := n
	if candidate%2 == 0 {
		candidate++
	}
	for !IsPrime(candidate) {
		candidate += 2
	}
	return candidate
}

// IsPrime reports whether n is prime, by trial division. The fields
// used by the coloring algorithms have size O(Δ·polylog), so trial
// division is more than fast enough and keeps the package dependency-
// free.
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n < 4 {
		return true
	}
	if n%2 == 0 {
		return false
	}
	for f := 3; f*f <= n; f += 2 {
		if n%f == 0 {
			return false
		}
	}
	return true
}

// Mod reduces modulo a fixed q without dividing: a Barrett reduction
// by the precomputed inv = ⌊(2⁶⁴−1)/q⌋. Writing 2⁶⁴−1 = inv·q + s with
// s < q, x·inv/2⁶⁴ = x/q − x·(s+1)/(q·2⁶⁴) falls short of x/q by less
// than 1 for every 64-bit x, so the estimate ⌊x·inv/2⁶⁴⌋ is ⌊x/q⌋ or
// one less, and one conditional subtraction makes it exact. Linial's
// reduction builds one per step of its schedule, once per run.
type Mod struct {
	q, inv uint64
}

// NewMod returns the reducer modulo q. It panics for q outside
// [2, 2^32).
func NewMod(q int) Mod {
	if q < 2 || q >= 1<<32 {
		panic("gf: NewMod modulus outside [2, 2^32)")
	}
	return Mod{q: uint64(q), inv: math.MaxUint64 / uint64(q)}
}

// divMod returns x/q and x%q.
func (r Mod) divMod(x uint64) (quo, rem uint64) {
	quo, _ = bits.Mul64(x, r.inv)
	rem = x - quo*r.q
	if rem >= r.q {
		quo, rem = quo+1, rem-r.q
	}
	return quo, rem
}

// Reduce returns x mod q for x ≥ 0.
func (r Mod) Reduce(x int) int {
	_, rem := r.divMod(uint64(x))
	return int(rem)
}

// Digits writes the len(digits) base-q digits of m into digits, least
// significant first: the coefficients of m's polynomial, constant term
// first. It panics if m < 0 or m ≥ q^len(digits).
func (r Mod) Digits(m int, digits []int) {
	if m < 0 {
		panic("gf: Digits of negative value")
	}
	x := uint64(m)
	for i := range digits {
		quo, rem := r.divMod(x)
		digits[i], x = int(rem), quo
	}
	if x != 0 {
		panic("gf: value does not fit in q^(degree+1)")
	}
}

// eval returns f(a) mod q, where f is the polynomial with coefficients
// digits (constant term first, each < q), at a point a < q. Horner's
// rule runs without intermediate reductions: with every coefficient
// and the point below q, each partial sum is at most the integer the
// digits encode, so one reduction at the end suffices.
func (r Mod) eval(digits []int, a int) int {
	v := 0
	for i := len(digits) - 1; i >= 0; i-- {
		v = v*a + digits[i]
	}
	return r.Reduce(v)
}

// Values sets vals[a] = f(a) mod q at every point a < len(vals) ≤ q,
// where f is the polynomial with coefficients digits, as Digits writes
// them.
func (r Mod) Values(digits, vals []int) {
	for a := range vals {
		vals[a] = r.eval(digits, a)
	}
}

// Agreements adds one to count[a] at every point a < len(vals) ≤ q
// where the polynomial with coefficients digits, as Digits writes
// them, takes the value vals[a] mod q.
func (r Mod) Agreements(digits, vals, count []int) {
	count = count[:len(vals)]
	for a, v := range vals {
		hit := 0 // a branch-free count: agreements are rare and unpredictable
		if r.eval(digits, a) == v {
			hit = 1
		}
		count[a] += hit
	}
}

// PointValue encodes the point-value pair (a, v) over F_q as a single
// integer in [0, q²): a·q + v. This is the "new color" of the Linial
// reduction step.
func PointValue(a, v, q int) int {
	return a*q + v
}
