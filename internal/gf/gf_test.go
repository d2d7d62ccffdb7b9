package gf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestIsPrime(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 97, 101, 7919}
	composites := []int{-7, 0, 1, 4, 6, 9, 15, 91, 7917}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {7900, 7901},
	}
	for _, c := range cases {
		if got := NextPrime(c.n); got != c.want {
			t.Errorf("NextPrime(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNextPrimeQuick(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)
		p := NextPrime(n)
		if p < n || !IsPrime(p) {
			return false
		}
		// No prime strictly between n and p.
		for k := n; k < p; k++ {
			if IsPrime(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Poly is a polynomial over F_q with coefficients Coeffs[i] for x^i:
// the reference the division-free kernel (Mod's Digits and Eval) is
// checked against, with a % at every step.
type Poly struct {
	Q      int   // field modulus (prime)
	Coeffs []int // little-endian coefficients, each in [0, Q)
}

// PolyFromIntInto returns the polynomial over F_q whose coefficients
// are the base-q digits of m (least significant digit = constant
// term), padded with zeros to exactly degree+1 coefficients, written
// into buf (reallocated only if its capacity is short). It panics if
// m does not fit, i.e. m ≥ q^(degree+1), or if m < 0.
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

// polyInt returns the integer whose base-q digits are the coefficients
// of p: the inverse of PolyFromIntInto.
func polyInt(p Poly) int {
	v := 0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*p.Q + p.Coeffs[i]
	}
	return v
}

func TestPolyRoundTrip(t *testing.T) {
	f := func(rawM uint16, rawQ, rawD uint8) bool {
		q := NextPrime(int(rawQ%50) + 2)
		d := int(rawD%4) + 1
		limit := 1
		for i := 0; i <= d; i++ {
			limit *= q
		}
		m := int(rawM) % limit
		p := PolyFromIntInto(m, q, d, nil)
		return polyInt(p) == m && len(p.Coeffs) == d+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolyFromIntPanics(t *testing.T) {
	for _, c := range []struct {
		name         string
		m, q, degree int
		want         string
	}{
		{"negative value", -1, 3, 1, "gf: PolyFromIntInto of negative value"},
		{"field size < 2", 1, 1, 1, "gf: PolyFromIntInto with field size < 2"},
		{"overflowing value", 1000, 3, 1, "gf: PolyFromIntInto value does not fit"}, // 1000 ≥ 3² = 9
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, c.want) {
					t.Errorf("PolyFromIntInto with %s panicked with %q, want prefix %q", c.name, msg, c.want)
				}
			}()
			PolyFromIntInto(c.m, c.q, c.degree, nil)
		}()
	}
}

func TestEvalHorner(t *testing.T) {
	// p(x) = 2 + 3x + x² over F_7.
	p := Poly{Q: 7, Coeffs: []int{2, 3, 1}}
	want := []int{2, 6, 5, 6, 2, 0, 0} // p(0..6) mod 7
	for a, w := range want {
		if got := p.Eval(a); got != w {
			t.Errorf("p(%d) = %d, want %d", a, got, w)
		}
	}
	// Negative and ≥ q inputs reduce mod q.
	if p.Eval(-1) != p.Eval(6) || p.Eval(8) != p.Eval(1) {
		t.Error("Eval does not reduce argument modulo q")
	}
}

// agreements counts the points a ∈ F_q with p(a) == o(a).
func agreements(p, o Poly) int {
	n := 0
	for a := 0; a < p.Q; a++ {
		if p.Eval(a) == o.Eval(a) {
			n++
		}
	}
	return n
}

func TestAgreementsBound(t *testing.T) {
	// Distinct degree-≤d polynomials agree on at most d points.
	f := func(rawA, rawB uint16, rawQ, rawD uint8) bool {
		q := NextPrime(int(rawQ%30) + 5)
		d := int(rawD%3) + 1
		limit := 1
		for i := 0; i <= d; i++ {
			limit *= q
		}
		ma, mb := int(rawA)%limit, int(rawB)%limit
		agr := agreements(PolyFromIntInto(ma, q, d, nil), PolyFromIntInto(mb, q, d, nil))
		if ma == mb {
			return agr == q
		}
		return agr <= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPointValueRoundTrip(t *testing.T) {
	f := func(rawA, rawV, rawQ uint8) bool {
		q := int(rawQ%100) + 2
		a := int(rawA) % q
		v := int(rawV) % q
		code := PointValue(a, v, q)
		if code < 0 || code >= q*q {
			return false
		}
		return code/q == a && code%q == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// panicText runs f and returns its panic message, or "" if it returns.
func panicText(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

func TestNewModRange(t *testing.T) {
	for _, q := range []int{math.MinInt, -1, 0, 1, 1 << 32, 1<<32 + 1, math.MaxInt} {
		if msg := panicText(func() { NewMod(q) }); msg != "gf: NewMod modulus outside [2, 2^32)" {
			t.Errorf("NewMod(%d) panicked with %q", q, msg)
		}
	}
	for _, q := range []int{2, 3, 1<<32 - 1} {
		if msg := panicText(func() { NewMod(q) }); msg != "" {
			t.Errorf("NewMod(%d) panicked with %q", q, msg)
		}
	}
}

func TestDigitsPanics(t *testing.T) {
	mod, digits := NewMod(3), make([]int, 2)
	for _, c := range []struct {
		m    int
		want string
	}{
		{-1, "gf: Digits of negative value"},
		{9, "gf: value does not fit in q^(degree+1)"}, // 9 = 3²
		{math.MaxInt, "gf: value does not fit in q^(degree+1)"},
		{8, ""},
	} {
		if msg := panicText(func() { mod.Digits(c.m, digits) }); msg != c.want {
			t.Errorf("Digits(%d) over 2 base-3 digits panicked with %q, want %q", c.m, msg, c.want)
		}
	}
}

// TestKernelMatchesPoly checks the division-free kernel against the
// oracle for every color below q^(d+1) at every point: the digits, the
// values and the agreements with one fixed polynomial. (11, 2) is
// perfbench solve-wide's Linial step, (11, 4) the first step from ids
// on a 10⁵-node ring.
func TestKernelMatchesPoly(t *testing.T) {
	for _, c := range []struct{ q, d int }{{5, 2}, {7, 3}, {11, 2}, {11, 4}} {
		mod, digits, coeffs := NewMod(c.q), make([]int, c.d+1), make([]int, c.d+1)
		vals, mine, count := make([]int, c.q), make([]int, c.q), make([]int, c.q)
		limit := 1
		for range digits {
			limit *= c.q
		}
		ref := PolyFromIntInto(limit/2, c.q, c.d, nil)
		for a := range mine {
			mine[a] = ref.Eval(a)
		}
		for m := 0; m < limit; m++ {
			mod.Digits(m, digits)
			p := PolyFromIntInto(m, c.q, c.d, coeffs)
			for i, x := range digits {
				if x != p.Coeffs[i] {
					t.Fatalf("q=%d d=%d m=%d: digit %d is %d, want %d", c.q, c.d, m, i, x, p.Coeffs[i])
				}
			}
			mod.Values(digits, vals)
			clear(count)
			mod.Agreements(digits, mine, count)
			for a, v := range vals {
				want := p.Eval(a)
				if v != want {
					t.Fatalf("q=%d d=%d m=%d: f(%d) = %d, want %d", c.q, c.d, m, a, v, want)
				}
				if agree := want == mine[a]; count[a] != 0 != agree || count[a] > 1 {
					t.Fatalf("q=%d d=%d m=%d: count at %d is %d, agreement %v", c.q, c.d, m, a, count[a], agree)
				}
			}
		}
		if msg := panicText(func() { mod.Digits(limit, digits) }); msg != "gf: value does not fit in q^(degree+1)" {
			t.Errorf("q=%d d=%d: Digits(q^(d+1)) panicked with %q", c.q, c.d, msg)
		}
	}
}

// FuzzMod checks Reduce and the digit decode against / and % for
// q ∈ [2, 2³²) and x ∈ [0, 2⁶³). An out-of-range q is folded into
// the range, and x's top bit is dropped.
func FuzzMod(f *testing.F) {
	for _, q := range []uint64{2, 3, 11, 65537, 1<<32 - 5, 1<<32 - 1} {
		for _, x := range []uint64{0, q - 1, q, q + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1} {
			f.Add(q, x)
		}
	}
	f.Fuzz(func(t *testing.T, rawQ, rawX uint64) {
		q := int(rawQ)
		if rawQ < 2 || rawQ >= 1<<32 {
			q = int(2 + rawQ%(1<<32-2))
		}
		x := int(rawX &^ (1 << 63))
		mod := NewMod(q)
		if got := mod.Reduce(x); got != x%q {
			t.Fatalf("Reduce(%d) mod %d = %d, want %d", x, q, got, x%q)
		}
		// x has k base-q digits: decoding into k succeeds, into k−1
		// panics (for x > 0).
		k := 0
		for v := x; v > 0; v /= q {
			k++
		}
		digits := make([]int, k)
		mod.Digits(x, digits)
		for i, v := 0, x; i < k; i, v = i+1, v/q {
			if digits[i] != v%q {
				t.Fatalf("digit %d of %d in base %d = %d, want %d", i, x, q, digits[i], v%q)
			}
		}
		if k > 0 {
			if msg := panicText(func() { mod.Digits(x, digits[:k-1]) }); msg != "gf: value does not fit in q^(degree+1)" {
				t.Fatalf("Digits(%d) into %d base-%d digits panicked with %q", x, k-1, q, msg)
			}
		}
	})
}

// kernelStep is one node's Linial step on the kernel: the point with
// the fewest agreements between mine's polynomial and theirs', encoded
// as its point-value pair.
func kernelStep(mod Mod, q, mine int, theirs, digits, vals, conflicts []int) int {
	mod.Digits(mine, digits)
	mod.Values(digits, vals)
	clear(conflicts)
	for _, c := range theirs {
		mod.Digits(c, digits)
		mod.Agreements(digits, vals, conflicts)
	}
	best := argmin(conflicts)
	return PointValue(best, vals[best], q)
}

// oracleStep is kernelStep on the oracle, as Linial's step evaluated
// before the kernel.
func oracleStep(q, d, mine int, theirs, mineBuf, theirsBuf, vals, conflicts []int) int {
	p := PolyFromIntInto(mine, q, d, mineBuf)
	for a := range vals {
		vals[a] = p.Eval(a)
	}
	clear(conflicts)
	for _, c := range theirs {
		o := PolyFromIntInto(c, q, d, theirsBuf)
		for a := range vals {
			if o.Eval(a) == vals[a] {
				conflicts[a]++
			}
		}
	}
	best := argmin(conflicts)
	return PointValue(best, vals[best], q)
}

// argmin returns the first index of the smallest entry.
func argmin(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// BenchmarkReduceStep times one node's step, kernel against oracle, at
// perfbench solve-wide's shape (q = 11, d = 2, 4 neighbors) and at the
// first step from ids on a 10⁵-node ring (q = 11, d = 4, 2 neighbors).
func BenchmarkReduceStep(b *testing.B) {
	for _, c := range []struct {
		name       string
		q, d, mine int
		theirs     []int
	}{
		{"q11-d2-deg4", 11, 2, 1000, []int{17, 424, 999, 1330}},
		{"q11-d4-deg2", 11, 4, 54321, []int{54320, 54322}},
	} {
		vals, conflicts := make([]int, c.q), make([]int, c.q)
		digits, theirsBuf := make([]int, c.d+1), make([]int, c.d+1)
		want := oracleStep(c.q, c.d, c.mine, c.theirs, digits, theirsBuf, vals, conflicts)
		b.Run(c.name+"/kernel", func(b *testing.B) {
			mod := NewMod(c.q)
			b.ReportAllocs()
			for range b.N {
				if kernelStep(mod, c.q, c.mine, c.theirs, digits, vals, conflicts) != want {
					b.Fatal("kernel and oracle steps disagree")
				}
			}
		})
		b.Run(c.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if oracleStep(c.q, c.d, c.mine, c.theirs, digits, theirsBuf, vals, conflicts) != want {
					b.Fatal("oracle step is not deterministic")
				}
			}
		})
	}
}
