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
// needed.
//
// Fitting N observations down to a k-point sample costs an O(N)
// shuffle of 4-byte row indices — the draw sequence of rand.Perm, so
// the sample is the same whichever way the data is laid out — plus an
// O(k·d) copy of the sampled rows into one flat array. Only the first
// k entries of the shuffle are kept, so its N−k steps past them store
// one index each instead of swapping two. FitColumns reads the rows
// straight out of column-major data, so no per-row copy of the full
// dataset is ever made.
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
	// Bandwidth overrides the per-dimension bandwidths. Empty means
	// use Scott's rule.
	Bandwidth []float64
	// Rng drives subsampling. Required only when MaxSample truncates.
	Rng *rand.Rand
}

// Fit estimates a KDE over the given points (rows are observations).
// Bandwidths default to Scott's rule h_j = σ_j · n^(−1/(d+4)), with a
// small floor for degenerate (constant) dimensions.
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
// backing array, and derives the bandwidths from that sample.
func fit(n, dims int, opts Options, row func(dst []float64, i int)) (*KDE, error) {
	if len(opts.Bandwidth) > 0 {
		if len(opts.Bandwidth) != dims {
			return nil, fmt.Errorf("kde: %d bandwidths for %d dimensions", len(opts.Bandwidth), dims)
		}
		for j, h := range opts.Bandwidth {
			if h <= 0 {
				return nil, fmt.Errorf("kde: bandwidth %d is %g, want > 0", j, h)
			}
		}
	}
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
	if len(opts.Bandwidth) > 0 {
		k.bandwidth = append([]float64(nil), opts.Bandwidth...)
	} else {
		k.bandwidth = scottBandwidth(k.points, dims)
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
// paper Eq. 8.
func (k *KDE) BoxMass(box geom.Rect) float64 {
	if box.Dims() != k.dims {
		panic(fmt.Sprintf("kde: BoxMass box of dimension %d, want %d", box.Dims(), k.dims))
	}
	var sum float64
	for at := 0; at < len(k.points); at += k.dims {
		s := k.points[at : at+k.dims]
		prod := 1.0
		for j := 0; j < k.dims; j++ {
			h := k.bandwidth[j]
			prod *= normCDF((box.Max[j]-s[j])/h) - normCDF((box.Min[j]-s[j])/h)
			if prod == 0 {
				break
			}
		}
		sum += prod
	}
	return sum / float64(k.SampleSize())
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
