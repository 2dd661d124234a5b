package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCountAcc(t *testing.T) {
	var a CountAcc
	if a.Value() != 0 {
		t.Errorf("empty count = %g, want 0", a.Value())
	}
	for i := 0; i < 5; i++ {
		a.Add(float64(i))
	}
	if a.Value() != 5 || a.Count() != 5 {
		t.Errorf("count = %g (n=%d), want 5", a.Value(), a.Count())
	}
}

func TestSumAcc(t *testing.T) {
	var a SumAcc
	a.Add(1.5)
	a.Add(-0.5)
	a.Add(2)
	if a.Value() != 3 {
		t.Errorf("sum = %g, want 3", a.Value())
	}
}

func TestMeanAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		var acc MeanAcc
		var sum float64
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 100
			acc.Add(v)
			sum += v
		}
		want := sum / float64(n)
		if math.Abs(acc.Value()-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("mean = %g, want %g", acc.Value(), want)
		}
	}
}

func TestMeanAccEmptyIsNaN(t *testing.T) {
	var a MeanAcc
	if !math.IsNaN(a.Value()) {
		t.Errorf("empty mean = %g, want NaN", a.Value())
	}
}

func TestVarianceAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(300)
		vals := make([]float64, n)
		var acc VarianceAcc
		for i := range vals {
			vals[i] = rng.NormFloat64()*10 + 5
			acc.Add(vals[i])
		}
		mean := MeanOf(vals)
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		want := ss / float64(n-1)
		if math.Abs(acc.Value()-want) > 1e-8*math.Max(1, want) {
			t.Fatalf("variance = %g, want %g", acc.Value(), want)
		}
		if math.Abs(acc.Mean()-mean) > 1e-9*math.Max(1, math.Abs(mean)) {
			t.Fatalf("running mean = %g, want %g", acc.Mean(), mean)
		}
	}
}

func TestVarianceAccUndefinedBelowTwo(t *testing.T) {
	var a VarianceAcc
	a.Add(1)
	if !math.IsNaN(a.Value()) {
		t.Errorf("variance of one obs = %g, want NaN", a.Value())
	}
}

func TestStdDevAcc(t *testing.T) {
	var a StdDevAcc
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	// Sample stddev of this classic sequence is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(a.Value()-want) > 1e-12 {
		t.Errorf("stddev = %g, want %g", a.Value(), want)
	}
}

func TestMinMaxAcc(t *testing.T) {
	var mn MinAcc
	var mx MaxAcc
	if !math.IsNaN(mn.Value()) || !math.IsNaN(mx.Value()) {
		t.Error("empty min/max should be NaN")
	}
	for _, v := range []float64{3, -1, 4, 1, 5} {
		mn.Add(v)
		mx.Add(v)
	}
	if mn.Value() != -1 {
		t.Errorf("min = %g, want -1", mn.Value())
	}
	if mx.Value() != 5 {
		t.Errorf("max = %g, want 5", mx.Value())
	}
}

func TestMedianAcc(t *testing.T) {
	var a MedianAcc
	for _, v := range []float64{5, 1, 3} {
		a.Add(v)
	}
	if a.Value() != 3 {
		t.Errorf("odd median = %g, want 3", a.Value())
	}
	a.Add(7)
	if a.Value() != 4 {
		t.Errorf("even median = %g, want 4", a.Value())
	}
	var empty MedianAcc
	if !math.IsNaN(empty.Value()) {
		t.Error("empty median should be NaN")
	}
}

func TestMedianAccDoesNotMutateOrder(t *testing.T) {
	var a MedianAcc
	in := []float64{9, 1, 5}
	for _, v := range in {
		a.Add(v)
	}
	_ = a.Value()
	_ = a.Value() // second call must see same data
	if a.Value() != 5 {
		t.Errorf("median = %g, want 5", a.Value())
	}
}

func TestRatioAcc(t *testing.T) {
	var a RatioAcc
	for _, v := range []float64{1, 0, 1, 1, 0} {
		a.Add(v)
	}
	if a.Value() != 0.6 {
		t.Errorf("ratio = %g, want 0.6", a.Value())
	}
}

func TestKindString(t *testing.T) {
	tests := map[Kind]string{
		Count: "count", Sum: "sum", Mean: "mean", Min: "min", Max: "max",
		Median: "median", Variance: "variance", StdDev: "stddev", Ratio: "ratio",
	}
	for k, want := range tests {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Count, Sum, Mean, Min, Max, Median, Variance, StdDev, Ratio} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("expected error for bogus kind")
	}
}

func TestKindAccumulatorAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for _, k := range []Kind{Count, Sum, Mean, Min, Max, Median, Variance, StdDev, Ratio} {
		acc := k.NewAccumulator()
		for _, v := range vals {
			acc.Add(v)
		}
		if acc.Count() != len(vals) {
			t.Errorf("%v accumulator count = %d, want %d", k, acc.Count(), len(vals))
		}
		if k != Count && !k.NeedsTarget() {
			t.Errorf("%v should need a target column", k)
		}
	}
	if Count.NeedsTarget() {
		t.Error("count should not need a target column")
	}
}

func TestDecomposable(t *testing.T) {
	for _, k := range []Kind{Count, Sum, Mean, Min, Max, Ratio} {
		if !k.Decomposable() {
			t.Errorf("%v should be decomposable", k)
		}
	}
	for _, k := range []Kind{Median, Variance, StdDev} {
		if k.Decomposable() {
			t.Errorf("%v should not be decomposable", k)
		}
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("exact RMSE = %g, %v", got, err)
	}
	got, err = RMSE([]float64{2, 2}, []float64{0, 0})
	if err != nil || got != 2 {
		t.Errorf("RMSE = %g, want 2", got)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := RMSE(nil, nil); err != ErrEmptyInput {
		t.Errorf("want ErrEmptyInput, got %v", err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	got, err := Pearson(x, y)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %g, %v", got, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	got, _ = Pearson(x, neg)
	if math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %g, want -1", got)
	}
	constant := []float64{3, 3, 3, 3, 3}
	got, _ = Pearson(x, constant)
	if !math.IsNaN(got) {
		t.Errorf("correlation with constant = %g, want NaN", got)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrEmptyInput {
		t.Errorf("single pair should error, got %v", err)
	}
}

func TestPearsonSymmetricQuick(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		x := []float64{a, b, c}
		y := []float64{d, e, g}
		p1, err1 := Pearson(x, y)
		p2, err2 := Pearson(y, x)
		if err1 != nil || err2 != nil {
			return err1 == err2
		}
		if math.IsNaN(p1) && math.IsNaN(p2) {
			return true
		}
		return math.Abs(p1-p2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	med, _ := Quantile(xs, 0.5)
	if q0 != 1 || q1 != 4 {
		t.Errorf("extremes = %g,%g, want 1,4", q0, q1)
	}
	if med != 2.5 {
		t.Errorf("median = %g, want 2.5", med)
	}
	q3, _ := Quantile(xs, 0.75)
	if q3 != 3.25 {
		t.Errorf("Q3 = %g, want 3.25", q3)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("expected error on q > 1")
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	_, _ = Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		v, want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.v); got != tt.want {
			t.Errorf("F(%g) = %g, want %g", tt.v, got, tt.want)
		}
		if got := e.Exceedance(tt.v); math.Abs(got-(1-tt.want)) > 1e-12 {
			t.Errorf("P(Y>%g) = %g, want %g", tt.v, got, 1-tt.want)
		}
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("expected error for empty sample")
	}
}

func TestECDFMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	e, _ := NewECDF(sample)
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = rng.Float64()
	}
	e, _ := NewECDF(sample)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v := e.Quantile(q)
		// For a uniform sample Quantile(q) ≈ q.
		if math.Abs(v-q) > 0.06 {
			t.Errorf("Quantile(%g) = %g, too far from %g", q, v, q)
		}
	}
}

func TestMeanStdDevHelpers(t *testing.T) {
	if !math.IsNaN(MeanOf(nil)) {
		t.Error("MeanOf(nil) should be NaN")
	}
	if !math.IsNaN(StdDevOf([]float64{1})) {
		t.Error("StdDev of single value should be NaN")
	}
	if MeanOf([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if math.Abs(StdDevOf([]float64{1, 2, 3})-1) > 1e-12 {
		t.Error("StdDev wrong")
	}
}

func TestQuantileAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		q0, _ := Quantile(xs, 0)
		q1, _ := Quantile(xs, 1)
		if q0 != sorted[0] || q1 != sorted[n-1] {
			t.Fatalf("extreme quantiles disagree with sort")
		}
	}
}
