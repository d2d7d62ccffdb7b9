// Package gf implements the modest finite-field toolkit that the
// Linial-style color-reduction algorithms need: prime selection,
// arithmetic in prime fields F_p, and evaluation of the polynomials
// whose point-value pairs serve as new colors.
//
// The color-reduction step of [Lin87] (and its defect-tolerant variant
// from [Kuh09, KS18]) identifies each current color m with the
// polynomial over F_q whose coefficients are the base-q digits of m.
// A node's new color is a point-value pair (a, f_m(a)) ∈ F_q × F_q,
// encoded as the integer a·q + f_m(a). Two distinct polynomials of
// degree ≤ d agree on at most d points, which is the combinatorial
// heart of the reduction.
package gf

// NextPrime returns the smallest prime ≥ n. It panics for n < 2 being
// asked to exceed 2^31 (the color spaces in this library never get
// anywhere near that).
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

// Poly is a polynomial over F_q with coefficients Coeffs[i] for x^i.
// The zero-length polynomial is the zero polynomial.
type Poly struct {
	Q      int   // field modulus (prime)
	Coeffs []int // little-endian coefficients, each in [0, Q)
}

// PolyFromIntInto returns the polynomial over F_q whose coefficients
// are the base-q digits of m (least significant digit = constant
// term), padded with zeros to exactly degree+1 coefficients. It writes
// the coefficients into buf (reallocated only if its capacity is
// short), so per-round polynomial decoding can reuse one node-local
// buffer instead of allocating. It panics if m does not fit, i.e.
// m ≥ q^(degree+1), or if m < 0.
func PolyFromIntInto(m, q, degree int, buf []int) Poly {
	if m < 0 {
		panic("gf: PolyFromIntInto of negative value")
	}
	if q < 2 {
		panic("gf: PolyFromIntInto with field size < 2")
	}
	if cap(buf) < degree+1 {
		buf = make([]int, degree+1)
	}
	coeffs := buf[:degree+1]
	v := m
	for i := 0; i <= degree; i++ {
		coeffs[i] = v % q
		v /= q
	}
	if v != 0 {
		panic("gf: PolyFromIntInto value does not fit in q^(degree+1)")
	}
	return Poly{Q: q, Coeffs: coeffs}
}

// Eval returns p(a) in F_q, by Horner's rule.
func (p Poly) Eval(a int) int {
	a %= p.Q
	if a < 0 {
		a += p.Q
	}
	v := 0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = (v*a + p.Coeffs[i]) % p.Q
	}
	return v
}

// PointValue encodes the point-value pair (a, v) over F_q as a single
// integer in [0, q²): a·q + v. This is the "new color" of the Linial
// reduction step.
func PointValue(a, v, q int) int {
	return a*q + v
}
