package dataset

import (
	"math"
	"math/rand/v2"
	"testing"

	"surf/internal/geom"
	"surf/internal/stats"
)

// FuzzEvaluatorParity is the differential regression net for the
// evaluator implementations: any (dataset, region, statistic) must
// yield the same (value, count) from LinearScan and GridIndex. The
// grid's pre-merged interior fast path is the interesting code path;
// the seed corpus pins the historical boundary-slab bug where the grid counted
// domain-edge rows a per-row test rejects.
//
// Run as a smoke step in CI (-fuzztime=10s) and as a plain seed
// regression test otherwise.
func FuzzEvaluatorParity(f *testing.F) {
	// The res argument maps to a grid resolution (fuzzResolution).
	//
	// Known-bad pre-fix seed: resolution 13 (res=11) over x ∈
	// [0.1, 0.7] leaves the last cell's accumulated rect short of 0.7,
	// and a region ending one ulp below 0.7 used to take the interior
	// fast path while a per-row test rejects the rows at 0.7.
	f.Add(uint64(1), uint16(40), uint8(11), uint8(0), 0.05, math.Nextafter(0.7, math.Inf(-1)), -2.0, 3.0)
	// Same region shapes across the other statistics.
	f.Add(uint64(1), uint16(40), uint8(11), uint8(2), 0.05, math.Nextafter(0.7, math.Inf(-1)), -2.0, 3.0)
	f.Add(uint64(9), uint16(77), uint8(11), uint8(5), 0.05, math.Nextafter(0.7, math.Inf(-1)), -2.0, 3.0)
	// Degenerate x dimension (zero extent forces the synthetic cell
	// width) with region bounds at and beyond the slab.
	f.Add(uint64(4), uint16(30), uint8(6), uint8(1), 2.5, 2.5, 0.0, 1.0)
	f.Add(uint64(8), uint16(50), uint8(4), uint8(3), 2.4, 3.6, -0.5, 1.5)
	// Single row, point region, off-domain region.
	f.Add(uint64(3), uint16(1), uint8(0), uint8(4), 0.1, 0.1, -1.3, -1.3)
	f.Add(uint64(5), uint16(64), uint8(29), uint8(6), 5.0, 9.0, -8.0, -7.0)
	// Domain-edge bounds on both dimensions.
	f.Add(uint64(7), uint16(120), uint8(15), uint8(7), 0.1, 0.7, -1.3, 2.9)
	f.Add(uint64(11), uint16(200), uint8(3), uint8(8), 0.7, 0.7, -1.3, 2.9)
	// Interior-range edge cases, with bounds read from the grid the
	// fuzz body builds (resolution 6 over seed 2's dataset). Region
	// bounds exactly on cell boundaries: the cells between them are
	// interior, and the boundary rows sit on the region's edges.
	b := fuzzGridBounds(2, 200, 4)
	f.Add(uint64(2), uint16(200), uint8(4), uint8(0), b[0][1], b[0][4], b[1][2], b[1][5])
	f.Add(uint64(2), uint16(200), uint8(4), uint8(8), b[0][1], b[0][4], b[1][2], b[1][5])
	// An interior block empty in y only: x spans whole cells while y
	// stays strictly inside cell 2.
	yIn, yOut := b[1][2]+0.25*(b[1][3]-b[1][2]), b[1][2]+0.75*(b[1][3]-b[1][2])
	f.Add(uint64(2), uint16(200), uint8(4), uint8(0), 0.05, b[0][5], yIn, yOut)
	f.Add(uint64(2), uint16(200), uint8(4), uint8(8), 0.05, b[0][5], yIn, yOut)

	kinds := []stats.Kind{
		stats.Count, stats.Sum, stats.Mean, stats.Min, stats.Max,
		stats.Median, stats.Variance, stats.StdDev, stats.Ratio,
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, res, statPick uint8, x0, x1, y0, y1 float64) {
		d := fuzzParityDataset(seed, 1+int(n%300))
		spec := Spec{FilterCols: []int{0, 1}, Stat: kinds[int(statPick)%len(kinds)], TargetCol: 2}
		ls, err := NewLinearScan(d, spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGridIndex(d, spec, fuzzResolution(res))
		if err != nil {
			t.Fatal(err)
		}
		region := geom.Rect{
			Min: []float64{fuzzBound(x0, -10), fuzzBound(y0, -10)},
			Max: []float64{fuzzBound(x1, 10), fuzzBound(y1, 10)},
		}.Canonical()
		assertSameEval(t, ls, g, region)
	})
}

// fuzzResolution maps the fuzz res argument to a grid resolution.
func fuzzResolution(res uint8) int { return 2 + int(res%62) }

// fuzzGridBounds returns the cell boundaries of the grid the fuzz body
// builds for (seed, n, res), for seeds whose regions must hit them
// exactly.
func fuzzGridBounds(seed uint64, n uint16, res uint8) [][]float64 {
	d := fuzzParityDataset(seed, 1+int(n%300))
	g, err := NewGridIndex(d, Spec{FilterCols: []int{0, 1}, Stat: stats.Count}, fuzzResolution(res))
	if err != nil {
		panic(err)
	}
	return g.bounds
}

// fuzzBound sanitizes a fuzz-chosen region bound: non-finite values
// collapse to a fixed fallback so every region is evaluable while NaN
// and infinity inputs still exercise the sanitizer.
func fuzzBound(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

// fuzzParityDataset derives a deterministic 3-column dataset from the
// fuzz seed. Coordinates cluster on a coarse lattice so exact
// duplicates and domain-edge hits are common. Shape variants: most
// seeds pin rows to the lattice corners (fixing the domain to
// [0.1,0.7]×[-1.3,2.9], which the seed corpus regions rely on), every
// fourth seed degenerates x to a single coordinate.
func fuzzParityDataset(seed uint64, n int) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 0x5eedf00d))
	degenerateX := seed%4 == 0
	xs := make([]float64, n)
	ys := make([]float64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		if degenerateX {
			xs[i] = 2.5
		} else {
			xs[i] = latticeCoord(rng, 0.1, 0.7)
		}
		ys[i] = latticeCoord(rng, -1.3, 2.9)
		vs[i] = math.Round(rng.Float64()*20) - 10
	}
	if !degenerateX {
		xs[0] = 0.1
		ys[0] = -1.3
		if n > 1 {
			xs[1] = 0.7
			ys[1] = 2.9
		}
	}
	return MustNew([]string{"x", "y", "v"}, [][]float64{xs, ys, vs})
}
