package kde

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"surf/internal/geom"
)

// erfcBoxMass is the exact Erfc sum that BoxMass approximates through
// the tabulated Φ: the reference for the differential tests below.
func erfcBoxMass(k *KDE, box geom.Rect) float64 {
	var sum float64
	for at := 0; at < len(k.points); at += k.dims {
		prod := 1.0
		for j, v := range k.points[at : at+k.dims] {
			h := k.bandwidth[j]
			prod *= exactCDF((box.Max[j]-v)/h) - exactCDF((box.Min[j]-v)/h)
		}
		sum += prod
	}
	return sum / float64(k.SampleSize())
}

// phiGrid returns a dense ascending z grid over [−12, 12]: a step of
// 1e−4, which is not a multiple of the table's 1/64, plus each table
// node and the float just below it, where two cells meet.
func phiGrid() []float64 {
	var zs []float64
	node := float64(-phiRange)
	for i := -120_000; i <= 120_000; i++ {
		z := float64(i) / 10_000
		for node <= phiRange && node <= z {
			zs = append(zs, math.Nextafter(node, math.Inf(-1)))
			if node < z {
				zs = append(zs, node)
			}
			node += 1.0 / phiScale
		}
		zs = append(zs, z)
	}
	return zs
}

// TestNormCDFMatchesErfc: the tabulated Φ is within 1e−10 of
// 0.5·Erfc(−z/√2) and non-decreasing on a dense grid over [−12, 12].
func TestNormCDFMatchesErfc(t *testing.T) {
	prev := math.Inf(-1)
	for _, z := range phiGrid() {
		got, want := normCDF(z), exactCDF(z)
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("normCDF(%v) = %v, want %v (error %g)", z, got, want, got-want)
		}
		if got < prev {
			t.Fatalf("normCDF decreases at %v: %v after %v", z, got, prev)
		}
		prev = got
	}
}

// TestNormCDFEdges: values outside the table, at its ends and at
// non-finite inputs, none of which may index the table.
func TestNormCDFEdges(t *testing.T) {
	tests := []struct {
		name string
		z    float64
		want float64
	}{
		{"+Inf", math.Inf(1), 1},
		{"-Inf", math.Inf(-1), 0},
		{"NaN", math.NaN(), math.NaN()},
		{"max float", math.MaxFloat64, 1},
		{"-max float", -math.MaxFloat64, 0},
		{"upper end", phiRange, 1},
		{"just below upper end", math.Nextafter(phiRange, 0), 1},
		{"lower end", -phiRange, exactCDF(-phiRange)},
		{"just below lower end", math.Nextafter(-phiRange, math.Inf(-1)), 0},
		{"zero", 0, 0.5},
		{"-0", math.Copysign(0, -1), 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := normCDF(tt.z)
			if math.IsNaN(tt.want) {
				if !math.IsNaN(got) {
					t.Fatalf("normCDF(%v) = %v, want NaN", tt.z, got)
				}
				return
			}
			if math.Abs(got-tt.want) > 1e-15 {
				t.Fatalf("normCDF(%v) = %v, want %v", tt.z, got, tt.want)
			}
		})
	}
}

// clusteredSample returns n points of dimension d over the unit cube,
// half uniform and half in a cluster at 0.7, the shape of a dataset
// with a hotspot.
func clusteredSample(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			if i%2 == 0 {
				p[j] = rng.Float64()
			} else {
				p[j] = 0.7 + 0.05*rng.NormFloat64()
			}
		}
		pts[i] = p
	}
	return pts
}

// TestBoxMassMatchesErfc: BoxMass is within 1e−8 relative of the exact
// Erfc sum over random boxes on a 1,000-point clustered sample in d =
// 1, 2 and 3: boxes of any size, boxes at the swarm's minimum 0.01
// half-side, and boxes centred up to 0.1 past the data in one
// dimension, about 1.5 bandwidths.
func TestBoxMassMatchesErfc(t *testing.T) {
	tests := []struct {
		name string
		box  func(rng *rand.Rand, x, l []float64)
	}{
		{"random", func(rng *rand.Rand, x, l []float64) {
			for j := range x {
				x[j], l[j] = rng.Float64(), 0.01+0.49*rng.Float64()
			}
		}},
		{"min-side", func(rng *rand.Rand, x, l []float64) {
			for j := range x {
				x[j], l[j] = rng.Float64(), 0.01
			}
		}},
		{"past the data", func(rng *rand.Rand, x, l []float64) {
			for j := range x {
				x[j], l[j] = rng.Float64(), 0.01+0.14*rng.Float64()
			}
			x[rng.IntN(len(x))] = 1 + 0.1*rng.Float64()
		}},
	}
	for _, d := range []int{1, 2, 3} {
		rng := rand.New(rand.NewPCG(uint64(d), 30))
		k, err := Fit(clusteredSample(rng, 1000, d), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tt := range tests {
			t.Run(fmt.Sprintf("d=%d/%s", d, tt.name), func(t *testing.T) {
				x, l := make([]float64, d), make([]float64, d)
				for i := 0; i < 500; i++ {
					tt.box(rng, x, l)
					box := geom.FromCenter(x, l)
					got, want := k.BoxMass(box), erfcBoxMass(k, box)
					if !(want > 0) || math.Abs(got-want) > 1e-8*want {
						t.Fatalf("box %v: BoxMass = %v, exact = %v", box, got, want)
					}
				}
			})
		}
	}
}

// TestBoxMassZeroWidth: a box with a zero-width side has mass exactly
// 0, wherever it lies.
func TestBoxMassZeroWidth(t *testing.T) {
	tests := []struct {
		name     string
		min, max []float64
	}{
		{"1-D point in the data", []float64{0.7}, []float64{0.7}},
		{"2-D point in the data", []float64{0.7, 0.7}, []float64{0.7, 0.7}},
		{"3-D point past the data", []float64{1.2, 0.5, -0.3}, []float64{1.2, 0.5, -0.3}},
		{"3-D slab of zero width", []float64{0, 0.7, 0}, []float64{1, 0.7, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(len(tt.min)), 31))
			k, err := Fit(clusteredSample(rng, 1000, len(tt.min)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m := k.BoxMass(geom.NewRect(tt.min, tt.max)); m != 0 {
				t.Fatalf("BoxMass = %v, want exactly 0", m)
			}
		})
	}
}
