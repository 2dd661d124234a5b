package gbt

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Property: predictions are always finite and bounded by the label
// range plus the boosting overshoot margin.
func TestPredictionsFiniteQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	X, y := synthRegression(rng, 600)
	p := DefaultParams()
	p.NumTrees = 40
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	f := func(a, b float64) bool {
		// Probe anywhere, including far outside the training domain.
		pred := walk(m, []float64{a, b})
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			return false
		}
		// Trees only emit leaf values fit to residuals; the ensemble
		// stays within the label range up to a generous margin.
		return pred >= lo-span && pred <= hi+span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: binning is monotone — a larger raw value never lands in a
// smaller bin.
func TestBinMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	vals := make([][]float64, 500)
	for i := range vals {
		vals[i] = []float64{rng.NormFloat64() * 10}
	}
	b := newBinner(vals, 64)
	f := func(a, c float64) bool {
		if a > c {
			a, c = c, a
		}
		return b.binOf(0, a) <= b.binOf(0, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
