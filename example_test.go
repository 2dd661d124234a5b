package surf_test

import (
	"fmt"
	"math"

	surf "surf"
)

// ExampleCustomStatistic registers a user-defined statistic — the
// spread of the third column — and mines with it exactly as with the
// built-in enum.
func ExampleCustomStatistic() {
	spread, err := surf.CustomStatistic("example-spread", func(rows [][]float64) float64 {
		if len(rows) == 0 {
			return math.NaN()
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			lo, hi = math.Min(lo, r[2]), math.Max(hi, r[2])
		}
		return hi - lo
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(spread.String())
	// Output: example-spread
}
