// Package stats implements the region statistics of paper Definition 2
// and the evaluation metrics of Section V.
//
// A statistic y = f(x, l) summarizes the data vectors falling inside a
// region. The paper's experiments use COUNT (the "density" statistic)
// and AVG over a value dimension (the "aggregate" statistic); the
// definition explicitly allows any decomposable (COUNT, SUM) or
// non-decomposable (MEDIAN) aggregate. This package provides streaming
// accumulators for the decomposable family, exact small-memory
// implementations for the non-decomposable ones, and the evaluation
// metrics (RMSE, Pearson correlation, empirical CDF, quantiles).
package stats

import (
	"math"
	"sort"
)

// Accumulator consumes observations one at a time and produces a scalar
// statistic. Value on an empty accumulator returns NaN for statistics
// that are undefined on empty sets (mean, median, variance, min, max)
// and 0 for count/sum.
type Accumulator interface {
	// Add feeds one observation.
	Add(v float64)
	// Value returns the statistic over everything added so far.
	Value() float64
	// Count returns the number of observations added.
	Count() int
}

// CountAcc counts observations. Its Value is the paper's "density"
// statistic y = |D|.
type CountAcc struct{ n int }

func (a *CountAcc) Add(float64)    { a.n++ }
func (a *CountAcc) Value() float64 { return float64(a.n) }
func (a *CountAcc) Count() int     { return a.n }

// SumAcc sums observations.
type SumAcc struct {
	n   int
	sum float64
}

func (a *SumAcc) Add(v float64)  { a.n++; a.sum += v }
func (a *SumAcc) Value() float64 { return a.sum }
func (a *SumAcc) Count() int     { return a.n }

// MeanAcc computes the arithmetic mean using Welford's update, which is
// numerically stable for long streams.
type MeanAcc struct {
	n    int
	mean float64
}

func (a *MeanAcc) Add(v float64) {
	a.n++
	a.mean += (v - a.mean) / float64(a.n)
}

func (a *MeanAcc) Value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}
func (a *MeanAcc) Count() int { return a.n }

// VarianceAcc computes the sample variance (n−1 denominator) with
// Welford's algorithm. With fewer than two observations Value is NaN.
type VarianceAcc struct {
	n    int
	mean float64
	m2   float64
}

func (a *VarianceAcc) Add(v float64) {
	a.n++
	delta := v - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (v - a.mean)
}

func (a *VarianceAcc) Value() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}
func (a *VarianceAcc) Count() int { return a.n }

// Mean returns the running mean seen by the variance accumulator.
func (a *VarianceAcc) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// StdDevAcc computes the sample standard deviation.
type StdDevAcc struct{ v VarianceAcc }

func (a *StdDevAcc) Add(x float64)  { a.v.Add(x) }
func (a *StdDevAcc) Value() float64 { return math.Sqrt(a.v.Value()) }
func (a *StdDevAcc) Count() int     { return a.v.Count() }

// MinAcc tracks the minimum.
type MinAcc struct {
	n   int
	min float64
}

func (a *MinAcc) Add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	a.n++
}

func (a *MinAcc) Value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}
func (a *MinAcc) Count() int { return a.n }

// MaxAcc tracks the maximum.
type MaxAcc struct {
	n   int
	max float64
}

func (a *MaxAcc) Add(v float64) {
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
}

func (a *MaxAcc) Value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}
func (a *MaxAcc) Count() int { return a.n }

// MedianAcc collects observations and reports their exact median. It is
// the canonical non-decomposable statistic from Definition 3; memory is
// O(n).
type MedianAcc struct{ vals []float64 }

func (a *MedianAcc) Add(v float64) { a.vals = append(a.vals, v) }

func (a *MedianAcc) Value() float64 {
	n := len(a.vals)
	if n == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), a.vals...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
func (a *MedianAcc) Count() int { return len(a.vals) }

// RatioAcc computes the fraction of observations for which a predicate
// held. Feed it 1 for matches and 0 otherwise (any non-zero value
// counts as a match). It backs the Human Activity "ratio of activity =
// stand" statistic of Section V-C.
type RatioAcc struct {
	n       int
	matches int
}

func (a *RatioAcc) Add(v float64) {
	a.n++
	if v != 0 {
		a.matches++
	}
}

func (a *RatioAcc) Value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return float64(a.matches) / float64(a.n)
}
func (a *RatioAcc) Count() int { return a.n }
