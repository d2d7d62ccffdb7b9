// Package stats provides the small statistical toolkit the benchmark
// harness uses to characterize measured series: summary statistics,
// least-squares fits, and log–log power-law exponent estimation (the
// tool that answers "does rounds grow like √Δ or like Δ?").
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the order statistics of a sample.
type Summary struct {
	N            int
	Min, Max     float64
	Mean, Stddev float64
	Median, P90  float64
}

// Summarize computes summary statistics; it panics on an empty sample
// (callers always aggregate at least one measurement).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(varSum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	return s
}

// Quantile returns the q-quantile of a sorted sample by linear
// interpolation between closest ranks (type 7); an empty sample
// yields 0.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is a least-squares line y = Slope·x + Intercept with the
// coefficient of determination R².
type Fit struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits y against x by ordinary least squares. It panics when
// the series lengths differ or fewer than two points are given.
func LinearFit(x, y []float64) Fit {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: series lengths %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		panic("stats: need at least two points to fit")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		panic("stats: degenerate x series (all equal)")
	}
	f := Fit{}
	f.Slope = (n*sxy - sx*sy) / denom
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		f.R2 = 1
		return f
	}
	ssRes := 0.0
	for i := range x {
		r := y[i] - (f.Slope*x[i] + f.Intercept)
		ssRes += r * r
	}
	f.R2 = 1 - ssRes/ssTot
	return f
}

// PowerLawExponent estimates k for y ≈ c·x^k by a log–log linear fit.
// Points with a non-positive (or NaN) coordinate carry no log–log
// information — a sweep cell that measured zero rounds, for example —
// and are skipped rather than poisoning the fit; the theorem
// shape-checks feed measured series here, and a single degenerate cell
// must not crash or skew the verdict. At least two positive points
// must remain (LinearFit's precondition) or the function panics.
func PowerLawExponent(x, y []float64) Fit {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: series lengths %d vs %d", len(x), len(y)))
	}
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if !(x[i] > 0) || !(y[i] > 0) { // excludes non-positive and NaN
			continue
		}
		lx = append(lx, math.Log(x[i]))
		ly = append(ly, math.Log(y[i]))
	}
	return LinearFit(lx, ly)
}
