// Package kde implements multivariate Gaussian kernel density
// estimation with a diagonal bandwidth matrix.
//
// SuRF approximates the data distribution pA(a) with a KDE (over a
// sample for large datasets) and multiplies each glowworm's selection
// probability by the KDE mass of the candidate region (paper
// Section III-B, Eq. 8), steering particles away from parts of the
// solution space where the surrogate extrapolates into data-free
// territory. For a product Gaussian kernel the box mass
// ∫_{x−l}^{x+l} pA(a) da has the closed form
//
//	(1/n) Σ_s Π_j [Φ((hi_j − s_j)/h_j) − Φ((lo_j − s_j)/h_j)]
//
// where Φ is the standard normal CDF, so no numeric quadrature is
// needed. BoxMass evaluates it as
//
//	(1/n) Σ_s Π_j [Φ̃(hi_j·g_j − s_j·g_j) − Φ̃(lo_j·g_j − s_j·g_j)]
//
// with g_j = 1/h_j taken at fit time, so a box costs no divides. Φ̃ is
// read from one table, built once per process since it depends on no
// data: in steps of 1/64 over z ∈ [−9, 9], the cubic that matches Φ
// and its slope φ at both ends of each step, stored as four Horner
// coefficients (37 KB in all), and 0 or 1 outside, where Φ is within
// 1.2e−19 of them. Φ̃ is non-decreasing and within 8.6e−11 of
// 0.5·Erfc(−z/√2) everywhere. Box masses on 1,000-point samples in
// d = 1–3 match the exact Erfc sum to within 4e−9 relative (1e−9 in
// d = 2), for boxes of any size, at the swarm's minimum 0.01 half-side
// and up to about 1.5 bandwidths past the data. The relative error
// grows in the far tail: about 7e−8 for boxes 3.5–5 bandwidths past
// the data, whose masses are below 1e−7. A box costs two table reads
// per sample point and dimension instead of two math.Erfc calls:
// BenchmarkKDEBoxMass on a 1,000-point 2-D sample with a 0.01
// half-side box went from 184–225 to 21–26 µs (2-vCPU x86-64).
//
// Fitting N observations down to a k-point sample costs an O(N)
// shuffle of 4-byte row indices — the draw sequence of rand.Perm, so
// the sample is the same whichever way the data is laid out — plus an
// O(k·d) copy of the sampled rows into one flat array. Only the first
// k entries of the shuffle are kept, so its N−k steps past them store
// one index each instead of swapping two. FitColumns reads the rows
// straight out of column-major data, so no per-row copy of the full
// dataset is ever made.
//
// A fitted KDE is never modified, so any number of goroutines may
// read one at once: a caller can fit the prior once per data version
// and share it across queries, as the engine does.
package kde

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"surf/internal/geom"
)

// KDE is a fitted kernel density estimate.
type KDE struct {
	points    []float64 // sample points, row major: point s is points[s*dims : (s+1)*dims]
	bandwidth []float64 // per-dimension kernel bandwidth h_j > 0
	inv       []float64 // 1/h_j, so BoxMass scales instead of divides
	dims      int
}

// ErrEmptySample reports fitting on no points.
var ErrEmptySample = errors.New("kde: empty sample")

// Options configure fitting.
type Options struct {
	// MaxSample caps the number of points retained; when the input is
	// larger a uniform subsample is drawn (the paper fits the KDE
	// "over a sample for large-scale datasets"). 0 means keep all.
	MaxSample int
	// Rng drives subsampling. Required only when MaxSample truncates.
	Rng *rand.Rand
}

// Fit estimates a KDE over the given points (rows are observations).
// Bandwidths follow Scott's rule h_j = σ_j · n^(−1/(d+4)) over the
// retained sample, with a small floor for degenerate (constant)
// dimensions.
func Fit(points [][]float64, opts Options) (*KDE, error) {
	if len(points) == 0 {
		return nil, ErrEmptySample
	}
	dims := len(points[0])
	if dims == 0 {
		return nil, errors.New("kde: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dims {
			return nil, fmt.Errorf("kde: point %d has dimension %d, want %d", i, len(p), dims)
		}
	}
	return fit(len(points), dims, opts, func(dst []float64, i int) { copy(dst, points[i]) })
}

// FitColumns is Fit over column-major data: cols[j][i] is coordinate j
// of observation i. It retains the same sample and bandwidths as Fit
// over the equivalent rows, but copies only the sampled rows.
func FitColumns(cols [][]float64, opts Options) (*KDE, error) {
	if len(cols) == 0 {
		return nil, errors.New("kde: zero-dimensional points")
	}
	n := len(cols[0])
	if n == 0 {
		return nil, ErrEmptySample
	}
	for j, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("kde: column %d has %d rows, want %d", j, len(c), n)
		}
	}
	return fit(n, len(cols), opts, func(dst []float64, i int) {
		for j, c := range cols {
			dst[j] = c[i]
		}
	})
}

// fit is the fitting path behind Fit and FitColumns: it draws the
// retained row indices, has row copy each retained row into one flat
// backing array, and derives the bandwidths and their reciprocals from
// that sample. It builds every field, so two fits of the same data are
// equal.
func fit(n, dims int, opts Options, row func(dst []float64, i int)) (*KDE, error) {
	size, idx := n, []int(nil) // idx nil: keep every row, in order
	if opts.MaxSample > 0 && n > opts.MaxSample {
		if opts.Rng == nil {
			return nil, errors.New("kde: MaxSample truncation requires Options.Rng")
		}
		size, idx = opts.MaxSample, sampleIndices(n, opts.MaxSample, opts.Rng)
	}
	k := &KDE{points: make([]float64, size*dims), dims: dims}
	for s := 0; s < size; s++ {
		i := s
		if idx != nil {
			i = idx[s]
		}
		row(k.points[s*dims:(s+1)*dims], i)
	}
	k.bandwidth = scottBandwidth(k.points, dims)
	k.inv = make([]float64, dims)
	for j, h := range k.bandwidth {
		k.inv[j] = 1 / h
	}
	return k, nil
}

// sampleIndices is the KDE's one sampler: it returns rng.Perm(n)[:k],
// consuming exactly the draws rng.Perm(n) would. The shuffle runs over
// 4-byte indices, half the memory of Perm's []int, unless n exceeds
// their range.
func sampleIndices(n, k int, rng *rand.Rand) []int {
	if n > math.MaxInt32 {
		return shuffledPrefix[int](n, k, rng)
	}
	return shuffledPrefix[int32](n, k, rng)
}

// shuffledPrefix runs the Fisher–Yates shuffle of rng.Perm over the
// identity permutation of n indices of type T, with rng.Shuffle's own
// draw for each step, and returns its first k entries. Step i settles
// position i, which no later step touches, so from i ≥ k on the step
// only stores the value it moves down; below k it swaps.
func shuffledPrefix[T int32 | int](n, k int, rng *rand.Rand) []int {
	perm := make([]T, n)
	for i := range perm {
		perm[i] = T(i)
	}
	i := n - 1
	for ; i >= k && i > 0; i-- {
		perm[rng.Uint64N(uint64(i+1))] = perm[i]
	}
	for ; i > 0; i-- {
		j := rng.Uint64N(uint64(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([]int, k)
	for s, i := range perm[:k] {
		out[s] = int(i)
	}
	return out
}

// scottBandwidth computes h_j = σ_j n^(−1/(d+4)) (Scott's rule for a
// diagonal-bandwidth Gaussian KDE) over row-major points.
func scottBandwidth(points []float64, dims int) []float64 {
	rows := len(points) / dims
	n := float64(rows)
	factor := math.Pow(n, -1/(float64(dims)+4))
	h := make([]float64, dims)
	for j := 0; j < dims; j++ {
		var mean, m2 float64
		for i := 0; i < rows; i++ {
			v := points[i*dims+j]
			delta := v - mean
			mean += delta / float64(i+1)
			m2 += delta * (v - mean)
		}
		sigma := 0.0
		if rows > 1 {
			sigma = math.Sqrt(m2 / (n - 1))
		}
		h[j] = sigma * factor
		if h[j] <= 1e-12 {
			h[j] = 1e-3 // degenerate dimension: tiny but positive
		}
	}
	return h
}

// Dims returns the dimensionality of the estimate.
func (k *KDE) Dims() int { return k.dims }

// SampleSize returns the number of retained sample points.
func (k *KDE) SampleSize() int { return len(k.points) / k.dims }

// Bandwidth returns the per-dimension bandwidths (a copy).
func (k *KDE) Bandwidth() []float64 { return append([]float64(nil), k.bandwidth...) }

// Density evaluates the estimated density pA at point p.
func (k *KDE) Density(p []float64) float64 {
	if len(p) != k.dims {
		panic(fmt.Sprintf("kde: Density point of dimension %d, want %d", len(p), k.dims))
	}
	norm := 1.0
	for _, h := range k.bandwidth {
		norm *= h * math.Sqrt(2*math.Pi)
	}
	var sum float64
	for at := 0; at < len(k.points); at += k.dims {
		s := k.points[at : at+k.dims]
		prod := 1.0
		for j := 0; j < k.dims; j++ {
			z := (p[j] - s[j]) / k.bandwidth[j]
			prod *= math.Exp(-0.5 * z * z)
		}
		sum += prod
	}
	return sum / (float64(k.SampleSize()) * norm)
}

// BoxMass returns ∫_box pA(a) da, the probability a draw from the
// estimate falls inside the axis-aligned box. This is the weight of
// paper Eq. 8. A box with a zero-width side has mass exactly 0.
func (k *KDE) BoxMass(box geom.Rect) float64 {
	if box.Dims() != k.dims {
		panic(fmt.Sprintf("kde: BoxMass box of dimension %d, want %d", box.Dims(), k.dims))
	}
	lo, hi, inv := box.Min, box.Max, k.inv
	var sum float64
	for at := 0; at < len(k.points); at += k.dims {
		prod := 1.0
		for j, v := range k.points[at : at+k.dims] {
			c := v * inv[j]
			prod *= normCDF(hi[j]*inv[j]-c) - normCDF(lo[j]*inv[j]-c)
		}
		sum += prod
	}
	return sum / float64(k.SampleSize())
}

// The tabulated Φ steps 1/phiScale over z ∈ [−phiRange, phiRange]
// in phiCells cells.
const (
	phiRange = 9
	phiScale = 64
	phiCells = 2 * phiRange * phiScale
)

// phiTable holds, for each cell i over [z_i, z_i + 1/phiScale) with
// z_i = −phiRange + i/phiScale, the Horner coefficients in
// t = (z − z_i)·phiScale ∈ [0, 1) of the cubic that matches Φ and its
// slope φ at both ends of the cell. It depends on nothing else, so it
// is built once per process.
var phiTable = newPhiTable()

func newPhiTable() (tab [phiCells][4]float64) {
	const step = 1.0 / phiScale
	f0, m0 := exactCDF(-phiRange), step*normPDF(-phiRange)
	for i := range tab {
		z1 := -phiRange + float64(i+1)*step
		f1, m1 := exactCDF(z1), step*normPDF(z1)
		d := f1 - f0
		c2 := 3*d - 2*m0 - m1
		tab[i] = [4]float64{f0, m0, c2, d - m0 - c2} // coefficients sum to f1 − f0
		f0, m0 = f1, m1
	}
	return tab
}

// normCDF is the standard normal cumulative distribution function Φ,
// read from phiTable: within 1e−10 of exactCDF, non-decreasing, 0 below
// −phiRange, 1 from phiRange on, and NaN at NaN.
func normCDF(z float64) float64 {
	x := z*phiScale + phiRange*phiScale
	if !(x >= 0 && x < phiCells) { // also NaN, which must not reach int(x)
		if x < 0 {
			return 0
		}
		if x >= phiCells {
			return 1
		}
		return x
	}
	i := int(x)
	t := x - float64(i)
	c := &phiTable[i]
	return c[0] + t*(c[1]+t*(c[2]+t*c[3]))
}

// exactCDF is Φ from math.Erfc, which builds phiTable.
func exactCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// normPDF is the standard normal density φ = Φ′.
func normPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}
