package gf

import (
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

func BenchmarkPolyEval(b *testing.B) {
	p := PolyFromIntInto(123456, 101, 4, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Eval(i % 101)
	}
}
