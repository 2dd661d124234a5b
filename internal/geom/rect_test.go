package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestNewRectPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for min > max")
		}
	}()
	NewRect([]float64{1}, []float64{0})
}

func TestNewRectPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dimension mismatch")
		}
	}()
	NewRect([]float64{0, 0}, []float64{1})
}

func TestFromCenterRoundTrip(t *testing.T) {
	x := []float64{0.5, -1, 3}
	l := []float64{0.1, 0.5, 2}
	r := FromCenter(x, l)
	c := r.Center()
	h := r.HalfSides()
	for i := range x {
		if !almostEqual(c[i], x[i], 1e-12) {
			t.Errorf("center[%d] = %g, want %g", i, c[i], x[i])
		}
		if !almostEqual(h[i], l[i], 1e-12) {
			t.Errorf("half[%d] = %g, want %g", i, h[i], l[i])
		}
	}
}

func TestFromCenterNegativeSides(t *testing.T) {
	r := FromCenter([]float64{0}, []float64{-2})
	if r.Min[0] != -2 || r.Max[0] != 2 {
		t.Errorf("got [%g,%g], want [-2,2]", r.Min[0], r.Max[0])
	}
}

func TestUnit(t *testing.T) {
	r := Unit(3)
	if r.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", r.Dims())
	}
	if r.Volume() != 1 {
		t.Errorf("Volume = %g, want 1", r.Volume())
	}
	if !r.Contains([]float64{0.5, 0.5, 0.5}) {
		t.Error("unit cube should contain its center")
	}
	if r.Contains([]float64{1.1, 0, 0}) {
		t.Error("unit cube should not contain (1.1,0,0)")
	}
}

func TestVolume(t *testing.T) {
	tests := []struct {
		r    Rect
		want float64
	}{
		{NewRect([]float64{0, 0}, []float64{2, 3}), 6},
		{NewRect([]float64{0}, []float64{0}), 0},
		{NewRect(nil, nil), 0},
		{NewRect([]float64{-1, -1, -1}, []float64{1, 1, 1}), 8},
	}
	for _, tt := range tests {
		if got := tt.r.Volume(); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Volume(%v) = %g, want %g", tt.r, got, tt.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := NewRect([]float64{0, 0}, []float64{2, 2})
	b := NewRect([]float64{1, 1}, []float64{3, 3})
	inter, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := NewRect([]float64{1, 1}, []float64{2, 2})
	if !inter.Equal(want) {
		t.Errorf("Intersect = %v, want %v", inter, want)
	}

	c := NewRect([]float64{5, 5}, []float64{6, 6})
	if _, ok := a.Intersect(c); ok {
		t.Error("expected disjoint")
	}
	// Touching rectangles intersect with zero volume.
	d := NewRect([]float64{2, 0}, []float64{4, 2})
	inter, ok = a.Intersect(d)
	if !ok {
		t.Fatal("touching rectangles should intersect")
	}
	if inter.Volume() != 0 {
		t.Errorf("touching intersection volume = %g, want 0", inter.Volume())
	}
}

func TestIoUKnownValues(t *testing.T) {
	a := NewRect([]float64{0, 0}, []float64{2, 2})
	b := NewRect([]float64{1, 0}, []float64{3, 2})
	// overlap 2, union 6
	if got := a.IoU(b); !almostEqual(got, 2.0/6.0, 1e-12) {
		t.Errorf("IoU = %g, want %g", got, 2.0/6.0)
	}
	if got := a.IoU(a); got != 1 {
		t.Errorf("self IoU = %g, want 1", got)
	}
	far := NewRect([]float64{10, 10}, []float64{11, 11})
	if got := a.IoU(far); got != 0 {
		t.Errorf("disjoint IoU = %g, want 0", got)
	}
	// Degenerate identical rectangles have IoU 1 by convention.
	p := NewRect([]float64{1, 1}, []float64{1, 1})
	if got := p.IoU(p); got != 1 {
		t.Errorf("degenerate self IoU = %g, want 1", got)
	}
}

func TestIoUDimensionMismatch(t *testing.T) {
	a := Unit(2)
	b := Unit(3)
	if got := a.IoU(b); got != 0 {
		t.Errorf("cross-dimension IoU = %g, want 0", got)
	}
}

func TestContainsRect(t *testing.T) {
	outer := Unit(2)
	inner := NewRect([]float64{0.2, 0.2}, []float64{0.8, 0.8})
	if !outer.ContainsRect(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsRect(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
}

func TestClip(t *testing.T) {
	domain := Unit(2)
	r := NewRect([]float64{-1, 0.5}, []float64{0.5, 2})
	got := r.Clip(domain)
	want := NewRect([]float64{0, 0.5}, []float64{0.5, 1})
	if !got.Equal(want) {
		t.Errorf("Clip = %v, want %v", got, want)
	}
	// Fully outside collapses to boundary with zero volume.
	out := NewRect([]float64{2, 2}, []float64{3, 3}).Clip(domain)
	if out.Volume() != 0 {
		t.Errorf("outside clip volume = %g, want 0", out.Volume())
	}
}

func TestExpand(t *testing.T) {
	r := NewRect([]float64{0, 0}, []float64{1, 1})
	e := r.Expand(0.5)
	want := NewRect([]float64{-0.5, -0.5}, []float64{1.5, 1.5})
	if !e.Equal(want) {
		t.Errorf("Expand = %v, want %v", e, want)
	}
	// Over-shrinking collapses to the center instead of inverting.
	s := r.Expand(-2)
	if s.Volume() != 0 {
		t.Errorf("over-shrunk volume = %g, want 0", s.Volume())
	}
	c := s.Center()
	if !almostEqual(c[0], 0.5, 1e-12) {
		t.Errorf("collapsed center = %g, want 0.5", c[0])
	}
}

func TestCanonical(t *testing.T) {
	r := Rect{Min: []float64{1, 0}, Max: []float64{0, 1}}
	c := r.Canonical()
	if c.Min[0] != 0 || c.Max[0] != 1 {
		t.Errorf("Canonical dim0 = [%g,%g], want [0,1]", c.Min[0], c.Max[0])
	}
}

func TestStringFormat(t *testing.T) {
	r := NewRect([]float64{0, 1}, []float64{1, 2})
	if got := r.String(); got != "[0,1]x[1,2]" {
		t.Errorf("String = %q", got)
	}
}

// randomRect produces a canonical rectangle inside [-5,5]^d.
func randomRect(rng *rand.Rand, d int) Rect {
	min := make([]float64, d)
	max := make([]float64, d)
	for i := 0; i < d; i++ {
		a := rng.Float64()*10 - 5
		b := rng.Float64()*10 - 5
		if a > b {
			a, b = b, a
		}
		min[i], max[i] = a, b
	}
	return Rect{Min: min, Max: max}
}

func TestIoUProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for d := 1; d <= 5; d++ {
		for trial := 0; trial < 200; trial++ {
			a := randomRect(rng, d)
			b := randomRect(rng, d)
			ab, ba := a.IoU(b), b.IoU(a)
			if !almostEqual(ab, ba, 1e-9) {
				t.Fatalf("d=%d IoU not symmetric: %g vs %g", d, ab, ba)
			}
			if ab < 0 || ab > 1 {
				t.Fatalf("d=%d IoU out of range: %g", d, ab)
			}
			if a.Volume() > 0 && a.IoU(a) != 1 {
				t.Fatalf("d=%d self IoU = %g", d, a.IoU(a))
			}
		}
	}
}

func TestIntersectionVolumeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		d := 1 + rng.Intn(4)
		a := randomRect(rng, d)
		b := randomRect(rng, d)
		iv := a.IntersectionVolume(b)
		if iv < 0 {
			t.Fatalf("negative intersection volume %g", iv)
		}
		if iv > a.Volume()+1e-9 || iv > b.Volume()+1e-9 {
			t.Fatalf("intersection volume %g exceeds operand volumes %g/%g", iv, a.Volume(), b.Volume())
		}
		uv := a.UnionVolume(b)
		if uv < math.Max(a.Volume(), b.Volume())-1e-9 {
			t.Fatalf("union volume %g below max operand volume", uv)
		}
		if uv > a.Volume()+b.Volume()+1e-9 {
			t.Fatalf("union volume %g above sum of volumes", uv)
		}
	}
}

func TestEncodeDecodeRegionQuick(t *testing.T) {
	f := func(x0, x1, l0, l1 float64) bool {
		x := []float64{x0, x1}
		l := []float64{l0, l1}
		v := EncodeRegion(x, l)
		gx, gl := DecodeRegion(v)
		return gx[0] == x0 && gx[1] == x1 && gl[0] == l0 && gl[1] == l1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(5)
		x := make([]float64, d)
		l := make([]float64, d)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
			l[i] = rng.Float64() * 2
		}
		r := RectFromVector(EncodeRegion(x, l))
		back := VectorFromRect(r)
		for i := 0; i < d; i++ {
			if !almostEqual(back[i], x[i], 1e-9) || !almostEqual(back[d+i], l[i], 1e-9) {
				t.Fatalf("round trip mismatch at dim %d: %v vs (%v,%v)", i, back, x, l)
			}
		}
	}
}

func TestDecodeRegionPanicsOnOddLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd-length vector")
		}
	}()
	DecodeRegion([]float64{1, 2, 3})
}

func TestSolutionSpace(t *testing.T) {
	domain := NewRect([]float64{0, 10}, []float64{1, 20})
	s := SolutionSpace(domain, 0.01, 0.15)
	if s.Dims() != 4 {
		t.Fatalf("Dims = %d, want 4", s.Dims())
	}
	// Centers cover the domain.
	if s.Min[0] != 0 || s.Max[0] != 1 || s.Min[1] != 10 || s.Max[1] != 20 {
		t.Errorf("center bounds wrong: %v", s)
	}
	// Sides scale with per-dimension extent.
	if !almostEqual(s.Min[2], 0.01, 1e-12) || !almostEqual(s.Max[2], 0.15, 1e-12) {
		t.Errorf("side bounds dim0 wrong: [%g,%g]", s.Min[2], s.Max[2])
	}
	if !almostEqual(s.Min[3], 0.1, 1e-12) || !almostEqual(s.Max[3], 1.5, 1e-12) {
		t.Errorf("side bounds dim1 wrong: [%g,%g]", s.Min[3], s.Max[3])
	}
}

func TestIntersectsConsistentWithIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		d := 1 + rng.Intn(4)
		a := randomRect(rng, d)
		b := randomRect(rng, d)
		_, ok := a.Intersect(b)
		if ok != a.Intersects(b) {
			t.Fatalf("Intersects=%v but Intersect ok=%v for %v, %v", a.Intersects(b), ok, a, b)
		}
	}
}
