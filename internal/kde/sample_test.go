package kde

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// columnsOf returns the column-major layout of row-major points.
func columnsOf(points [][]float64) [][]float64 {
	cols := make([][]float64, len(points[0]))
	for j := range cols {
		cols[j] = make([]float64, len(points))
		for i, p := range points {
			cols[j][i] = p[j]
		}
	}
	return cols
}

// refScott is Scott's rule over row slices, the layout the estimator
// kept its sample in before the flat array: the flat path must
// reproduce it bit for bit.
func refScott(points [][]float64) []float64 {
	dims := len(points[0])
	n := float64(len(points))
	factor := math.Pow(n, -1/(float64(dims)+4))
	h := make([]float64, dims)
	for j := range h {
		var mean, m2 float64
		for i, p := range points {
			delta := p[j] - mean
			mean += delta / float64(i+1)
			m2 += delta * (p[j] - mean)
		}
		sigma := 0.0
		if len(points) > 1 {
			sigma = math.Sqrt(m2 / (n - 1))
		}
		h[j] = sigma * factor
		if h[j] <= 1e-12 {
			h[j] = 1e-3
		}
	}
	return h
}

// sameBits reports whether two float slices are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSamplerPinnedToPerm pins the one index sampler: Fit over rows and
// FitColumns over the same data laid out by column retain exactly the
// rows of rng.Perm(n)[:k] (all n rows, in order, when n ≤ k), and the
// same Scott bandwidths, bit for bit.
func TestSamplerPinnedToPerm(t *testing.T) {
	const k = 40
	const seed = 99
	for _, n := range []int{1, k - 1, k, k + 1, 100 * k} {
		for _, d := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(t *testing.T) {
				points := gaussianCloud(rand.New(rand.NewPCG(uint64(n), uint64(d))), n, d, 0.5, 0.2)
				want := points
				if n > k {
					idx := rand.New(rand.NewPCG(seed, 1)).Perm(n)[:k]
					want = make([][]float64, k)
					for s, i := range idx {
						want[s] = points[i]
					}
				}
				byRows, err := Fit(points, Options{MaxSample: k, Rng: rand.New(rand.NewPCG(seed, 1))})
				if err != nil {
					t.Fatal(err)
				}
				byCols, err := FitColumns(columnsOf(points), Options{MaxSample: k, Rng: rand.New(rand.NewPCG(seed, 1))})
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range map[string]*KDE{"Fit": byRows, "FitColumns": byCols} {
					if got.SampleSize() != len(want) || got.Dims() != d {
						t.Fatalf("%s: %d points of dimension %d, want %d of %d", name, got.SampleSize(), got.Dims(), len(want), d)
					}
					for s, row := range want {
						if !sameBits(got.points[s*d:(s+1)*d], row) {
							t.Fatalf("%s: sample point %d = %v, want %v", name, s, got.points[s*d:(s+1)*d], row)
						}
					}
					if !sameBits(got.Bandwidth(), refScott(want)) {
						t.Fatalf("%s: bandwidths %v, want %v", name, got.Bandwidth(), refScott(want))
					}
				}
			})
		}
	}
}

// TestSamplerIndexWidths: past math.MaxInt32 rows the sampler shuffles
// []int instead of []int32. Both widths must draw the sample of
// rng.Perm — the wide one is exercised here at a testable n.
func TestSamplerIndexWidths(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000} {
		k := min(n, 10)
		want := rand.New(rand.NewPCG(5, uint64(n))).Perm(n)[:k]
		narrow := shuffledPrefix[int32](n, k, rand.New(rand.NewPCG(5, uint64(n))))
		wide := shuffledPrefix[int](n, k, rand.New(rand.NewPCG(5, uint64(n))))
		for s := range want {
			if narrow[s] != want[s] || wide[s] != want[s] {
				t.Fatalf("n=%d: index %d = %d (int32) / %d (int), want %d", n, s, narrow[s], wide[s], want[s])
			}
		}
	}
}

func TestFitColumnsValidation(t *testing.T) {
	if _, err := FitColumns(nil, Options{}); err == nil {
		t.Error("expected error for zero columns")
	}
	if _, err := FitColumns([][]float64{{}, {}}, Options{}); err != ErrEmptySample {
		t.Errorf("want ErrEmptySample, got %v", err)
	}
	if _, err := FitColumns([][]float64{{1, 2}, {1}}, Options{}); err == nil {
		t.Error("expected error for ragged columns")
	}
	if _, err := FitColumns([][]float64{{1, 2, 3}}, Options{MaxSample: 2}); err == nil {
		t.Error("expected error for MaxSample without Rng")
	}
}

// FuzzShuffledPrefix: for any n ≤ 5,000, k ≤ n and seed, both index
// widths of the sampler return rng.Perm(n)[:k] and leave the generator
// where rng.Perm(n) leaves it.
func FuzzShuffledPrefix(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, k uint16, seed uint64) {
		size := int(n) % 5001
		keep := int(k) % (size + 1)
		ref := rand.New(rand.NewPCG(seed, 1))
		want := ref.Perm(size)[:keep]
		next := ref.Uint64()
		for name, sample := range map[string]func(int, int, *rand.Rand) []int{
			"int32": shuffledPrefix[int32],
			"int":   shuffledPrefix[int],
		} {
			rng := rand.New(rand.NewPCG(seed, 1))
			got := sample(size, keep, rng)
			if len(got) != keep {
				t.Fatalf("%s: n=%d k=%d: %d indices", name, size, keep, len(got))
			}
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("%s: n=%d k=%d: index %d = %d, want %d", name, size, keep, s, got[s], want[s])
				}
			}
			if after := rng.Uint64(); after != next {
				t.Fatalf("%s: n=%d k=%d: generator left at %d, want %d", name, size, keep, after, next)
			}
		}
	})
}
