package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("order stats wrong: %+v", s)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if !almostEqual(s.Stddev, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Stddev = %v", s.Stddev)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
	if !almostEqual(s.P90, 4.6, 1e-12) {
		t.Errorf("P90 = %v", s.P90)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Median != 7 || s.Stddev != 0 || s.P90 != 7 {
		t.Errorf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty sample did not panic")
		}
	}()
	Summarize(nil)
}

func TestSummarizeBoundsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Median <= s.P90 && s.P90 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 2x + 1 exactly.
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9}
	f := LinearFit(x, y)
	if !almostEqual(f.Slope, 2, 1e-12) || !almostEqual(f.Intercept, 1, 1e-12) || !almostEqual(f.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", f)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x, y []float64
	for i := 1; i <= 200; i++ {
		x = append(x, float64(i))
		y = append(y, 3*float64(i)-5+rng.NormFloat64())
	}
	f := LinearFit(x, y)
	if !almostEqual(f.Slope, 3, 0.01) {
		t.Errorf("Slope = %v, want ≈3", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v", f.R2)
	}
}

func TestLinearFitPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { LinearFit([]float64{1}, []float64{1, 2}) },
		"too few points":  func() { LinearFit([]float64{1}, []float64{1}) },
		"degenerate x":    func() { LinearFit([]float64{2, 2}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPowerLawExponent(t *testing.T) {
	// y = 5·x^1.5.
	var x, y []float64
	for i := 1; i <= 40; i++ {
		x = append(x, float64(i))
		y = append(y, 5*math.Pow(float64(i), 1.5))
	}
	f := PowerLawExponent(x, y)
	if !almostEqual(f.Slope, 1.5, 1e-9) {
		t.Errorf("exponent = %v, want 1.5", f.Slope)
	}
	// sqrt vs linear distinguishable: y = √x has exponent 0.5.
	var y2 []float64
	for i := 1; i <= 40; i++ {
		y2 = append(y2, math.Sqrt(float64(i)))
	}
	if got := PowerLawExponent(x, y2).Slope; !almostEqual(got, 0.5, 1e-9) {
		t.Errorf("sqrt exponent = %v", got)
	}
}

func TestPowerLawSkipsNonPositivePoints(t *testing.T) {
	// Zero / negative / NaN cells are dropped from the fit instead of
	// panicking (they used to crash the bench shape-checks) — the fit
	// over the remaining points is unchanged.
	var x, y []float64
	for i := 1; i <= 30; i++ {
		x = append(x, float64(i))
		y = append(y, 5*math.Pow(float64(i), 1.5))
	}
	clean := PowerLawExponent(x, y)
	dirtyX := append([]float64{0, 7, -3, math.NaN()}, x...)
	dirtyY := append([]float64{12, 0, 4, 8}, y...)
	dirty := PowerLawExponent(dirtyX, dirtyY)
	if !almostEqual(dirty.Slope, clean.Slope, 1e-12) || !almostEqual(dirty.R2, clean.R2, 1e-12) {
		t.Errorf("fit with degenerate points %+v != clean fit %+v", dirty, clean)
	}
}

func TestPowerLawPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch":     func() { PowerLawExponent([]float64{1, 2}, []float64{1}) },
		"all non-positive":    func() { PowerLawExponent([]float64{0, -1}, []float64{1, 2}) },
		"one positive point":  func() { PowerLawExponent([]float64{1, 0}, []float64{1, 2}) },
		"degenerate survivor": func() { PowerLawExponent([]float64{2, 2, 0}, []float64{1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuantileClosedForm(t *testing.T) {
	// Linear interpolation between closest ranks (the "type 7"
	// convention): pos = q·(n−1), result = lerp(sorted[⌊pos⌋],
	// sorted[⌈pos⌉]). Even-length samples exercise the interpolated
	// branch for the median.
	cases := []struct {
		name           string
		xs             []float64
		q              float64
		want           float64
		median, p90    float64
		checkSummarize bool
	}{
		{name: "even median", xs: []float64{4, 1, 3, 2}, q: 0.5, want: 2.5, median: 2.5, p90: 3.7, checkSummarize: true},
		{name: "odd median", xs: []float64{3, 1, 2}, q: 0.5, want: 2, median: 2, p90: 2.8, checkSummarize: true},
		{name: "even six", xs: []float64{60, 10, 30, 50, 20, 40}, q: 0.5, want: 35, median: 35, p90: 55, checkSummarize: true},
		{name: "pair quarter", xs: []float64{1, 2}, q: 0.25, want: 1.25},
		{name: "q0", xs: []float64{5, 9, 7}, q: 0, want: 5},
		{name: "q1", xs: []float64{5, 9, 7}, q: 1, want: 9},
		{name: "repeated", xs: []float64{2, 2, 2, 2}, q: 0.9, want: 2},
		{name: "empty", xs: nil, q: 0.5, want: 0},
	}
	for _, tc := range cases {
		sorted := append([]float64(nil), tc.xs...)
		sort.Float64s(sorted)
		if got := Quantile(sorted, tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", tc.name, sorted, tc.q, got, tc.want)
		}
		if tc.checkSummarize {
			s := Summarize(tc.xs)
			if !almostEqual(s.Median, tc.median, 1e-12) || !almostEqual(s.P90, tc.p90, 1e-12) {
				t.Errorf("%s: Summarize median/p90 = %v/%v, want %v/%v", tc.name, s.Median, s.P90, tc.median, tc.p90)
			}
		}
	}
}
