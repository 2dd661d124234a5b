package stats

import (
	"errors"
	"math"
	"sort"
)

// Evaluation metrics from Section V: RMSE for surrogate quality,
// Pearson correlation for the IoU–RMSE study (Fig. 11), the empirical
// CDF used in Eq. 5 and the Human Activity analysis, and quantiles for
// the Crimes yR = Q3 query.

// ErrEmptyInput reports a metric computed over no observations.
var ErrEmptyInput = errors.New("stats: empty input")

// ErrLengthMismatch reports paired slices of different lengths.
var ErrLengthMismatch = errors.New("stats: length mismatch")

// RMSE returns the root mean squared error between predictions and
// ground truth.
func RMSE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmptyInput
	}
	var sum float64
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred))), nil
}

// Pearson returns the Pearson correlation coefficient of two paired
// samples. It is NaN when either sample has zero variance.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) < 2 {
		return 0, ErrEmptyInput
	}
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN(), nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MeanOf returns the arithmetic mean of xs (NaN for empty input).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDevOf returns the sample standard deviation of xs (NaN for fewer
// than two observations).
func StdDevOf(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := MeanOf(xs)
	var s float64
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (the "linear"/type-7 method).
// The input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// ECDF is an empirical cumulative distribution function built from a
// sample, used for the viability probability of Eq. 5:
// P{f(x,l) > yR} = 1 − F_Y(yR).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample (copied and sorted).
func NewECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, ErrEmptyInput
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns F(v) = P(Y ≤ v).
func (e *ECDF) At(v float64) float64 {
	// Index of the first element > v.
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Exceedance returns P(Y > v) = 1 − F(v), the region-viability
// probability of Eq. 5.
func (e *ECDF) Exceedance(v float64) float64 { return 1 - e.At(v) }

// Quantile returns the q-th quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 {
	v, err := Quantile(e.sorted, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }
