package kde

import (
	"math"
	"math/rand/v2"
	"testing"

	"surf/internal/geom"
)

func gaussianCloud(rng *rand.Rand, n, dims int, mean, sigma float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dims)
		for j := range p {
			p[j] = mean + rng.NormFloat64()*sigma
		}
		pts[i] = p
	}
	return pts
}

func TestFitValidation(t *testing.T) {
	tests := []struct {
		name   string
		points [][]float64
		opts   Options
	}{
		{"empty sample", nil, Options{}},
		{"zero-dimensional points", [][]float64{{}}, Options{}},
		{"ragged points", [][]float64{{1, 2}, {1}}, Options{}},
		{"MaxSample without Rng", [][]float64{{1}, {2}, {3}}, Options{MaxSample: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if k, err := Fit(tt.points, tt.opts); err == nil {
				t.Fatalf("Fit succeeded with bandwidths %v, want an error", k.Bandwidth())
			}
		})
	}
	if _, err := Fit(nil, Options{}); err != ErrEmptySample {
		t.Errorf("want ErrEmptySample, got %v", err)
	}
}

func TestMaxSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pts := gaussianCloud(rng, 1000, 2, 0, 1)
	k, err := Fit(pts, Options{MaxSample: 100, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if k.SampleSize() != 100 {
		t.Errorf("SampleSize = %d, want 100", k.SampleSize())
	}
}

func TestScottBandwidthPositive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	pts := gaussianCloud(rng, 200, 3, 5, 2)
	k, err := Fit(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, h := range k.Bandwidth() {
		if h <= 0 {
			t.Errorf("bandwidth[%d] = %g, want > 0", j, h)
		}
	}
	// Degenerate dimension still gets a positive bandwidth.
	flat := [][]float64{{1}, {1}, {1}}
	kf, err := Fit(flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kf.Bandwidth()[0] <= 0 {
		t.Error("degenerate bandwidth should be positive")
	}
}

func TestDensityIntegratesToOne1D(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	pts := gaussianCloud(rng, 300, 1, 0, 1)
	k, err := Fit(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid quadrature over a wide interval.
	const lo, hi = -8.0, 8.0
	const steps = 4000
	var integral float64
	for i := 0; i < steps; i++ {
		x0 := lo + (hi-lo)*float64(i)/steps
		x1 := lo + (hi-lo)*float64(i+1)/steps
		integral += (k.Density([]float64{x0}) + k.Density([]float64{x1})) / 2 * (x1 - x0)
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("density integrates to %g, want 1", integral)
	}
}

func TestBoxMassMatchesQuadrature1D(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	pts := gaussianCloud(rng, 200, 1, 0, 1)
	k, _ := Fit(pts, Options{})
	box := geom.NewRect([]float64{-0.5}, []float64{1.2})
	const steps = 4000
	var quad float64
	for i := 0; i < steps; i++ {
		x0 := box.Min[0] + box.Side(0)*float64(i)/steps
		x1 := box.Min[0] + box.Side(0)*float64(i+1)/steps
		quad += (k.Density([]float64{x0}) + k.Density([]float64{x1})) / 2 * (x1 - x0)
	}
	mass := k.BoxMass(box)
	if math.Abs(mass-quad) > 1e-3 {
		t.Errorf("BoxMass = %g, quadrature = %g", mass, quad)
	}
}

func TestBoxMassProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	pts := gaussianCloud(rng, 150, 2, 0.5, 0.2)
	k, _ := Fit(pts, Options{})
	// Whole space has mass ~1.
	huge := geom.NewRect([]float64{-100, -100}, []float64{100, 100})
	if m := k.BoxMass(huge); math.Abs(m-1) > 1e-6 {
		t.Errorf("whole-space mass = %g, want 1", m)
	}
	// Empty box has mass 0.
	point := geom.NewRect([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	if m := k.BoxMass(point); m != 0 {
		t.Errorf("zero-volume mass = %g, want 0", m)
	}
	// Monotone under containment.
	small := geom.NewRect([]float64{0.3, 0.3}, []float64{0.7, 0.7})
	large := geom.NewRect([]float64{0.1, 0.1}, []float64{0.9, 0.9})
	ms, ml := k.BoxMass(small), k.BoxMass(large)
	if ms > ml {
		t.Errorf("mass not monotone: small %g > large %g", ms, ml)
	}
	if ms < 0 || ml > 1+1e-9 {
		t.Errorf("mass out of [0,1]: %g, %g", ms, ml)
	}
	// Mass concentrates where the data lives.
	offData := geom.NewRect([]float64{5, 5}, []float64{6, 6})
	if k.BoxMass(offData) > 1e-6 {
		t.Errorf("off-data mass = %g, want ~0", k.BoxMass(offData))
	}
}

func TestBoxMassMonotoneRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	pts := gaussianCloud(rng, 100, 3, 0, 1)
	k, _ := Fit(pts, Options{})
	for trial := 0; trial < 100; trial++ {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		l := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		inner := geom.FromCenter(x, l)
		outer := inner.Expand(rng.Float64())
		if k.BoxMass(inner) > k.BoxMass(outer)+1e-12 {
			t.Fatalf("containment monotonicity violated")
		}
	}
}

func TestDensityHigherNearData(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	pts := gaussianCloud(rng, 300, 2, 0, 0.3)
	k, _ := Fit(pts, Options{})
	at := k.Density([]float64{0, 0})
	far := k.Density([]float64{10, 10})
	if at <= far {
		t.Errorf("density at data %g should exceed far-away %g", at, far)
	}
	if far < 0 {
		t.Errorf("density must be non-negative, got %g", far)
	}
}

func TestDensityPanicsOnWrongDims(t *testing.T) {
	k, _ := Fit([][]float64{{1, 2}}, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Density([]float64{1})
}

func TestNormCDF(t *testing.T) {
	tests := []struct{ z, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
	}
	for _, tt := range tests {
		if got := normCDF(tt.z); math.Abs(got-tt.want) > 1e-3 {
			t.Errorf("normCDF(%g) = %g, want %g", tt.z, got, tt.want)
		}
	}
}
