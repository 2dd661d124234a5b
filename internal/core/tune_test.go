package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"surf/internal/gbt"
)

// linearData is n rows of y = 2·x0 + x1 over uniform features.
func linearData(rng *rand.Rand, n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0, x1 := rng.Float64(), rng.Float64()
		X[i] = []float64{x0, x1}
		y[i] = 2*x0 + x1
	}
	return X, y
}

// TestPaperGrid pins the paper's Section V-E grid: 144 entries,
// learning rate outermost, then depth, then tree count, λ innermost,
// with every other field taken from base. The order decides ties and
// the rng stream each combination's folds draw from, so it is part of
// the tuned model's identity.
func TestPaperGrid(t *testing.T) {
	base := gbt.DefaultParams()
	base.Seed, base.Workers = 9, 2
	grid := PaperGrid(base)
	if len(grid) != 144 {
		t.Fatalf("paper grid has %d entries, want 144", len(grid))
	}
	i := 0
	for _, rate := range []float64{0.1, 0.01, 0.001} {
		for _, depth := range []int{3, 5, 7, 9} {
			for _, n := range []int{100, 200, 300} {
				for _, lambda := range []float64{1, 0.1, 0.01, 0.001} {
					want := base
					want.LearningRate, want.MaxDepth, want.NumTrees, want.Lambda = rate, depth, n, lambda
					if grid[i] != want {
						t.Fatalf("entry %d = %+v, want %+v", i, grid[i], want)
					}
					i++
				}
			}
		}
	}
}

func TestKFoldPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	const n, k = 103, 5
	folds, err := kFold(n, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != k {
		t.Fatalf("got %d folds, want %d", len(folds), k)
	}
	seen := make(map[int]int)
	for _, fold := range folds {
		train, test := fold[0], fold[1]
		if len(train)+len(test) != n {
			t.Fatalf("fold sizes %d+%d != %d", len(train), len(test), n)
		}
		inTest := make(map[int]bool)
		for _, i := range test {
			inTest[i] = true
			seen[i]++
		}
		for _, i := range train {
			if inTest[i] {
				t.Fatalf("row %d in both train and test", i)
			}
		}
		// Fold sizes are balanced to within one row.
		if len(test) < n/k || len(test) > n/k+1 {
			t.Fatalf("unbalanced test fold: %d", len(test))
		}
	}
	// Every row is tested exactly once.
	if len(seen) != n {
		t.Fatalf("only %d rows appear in test folds", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d tested %d times", i, c)
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	if _, err := kFold(10, 1, rng); err == nil {
		t.Error("expected error for k=1")
	}
	if _, err := kFold(3, 5, rng); err == nil {
		t.Error("expected error for n < k")
	}
}

func TestCrossValRMSELearnsSignal(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	X, y := linearData(rng, 300)
	p := gbt.DefaultParams()
	p.NumTrees = 60
	mean, err := crossValRMSE(context.Background(), p, X, y, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mean > 0.25 {
		t.Errorf("CV RMSE = %g, want < 0.25 on clean linear data", mean)
	}
}

func TestCrossValRMSEContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	X, y := linearData(rng, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := crossValRMSE(ctx, gbt.DefaultParams(), X, y, 3, rng); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled crossValRMSE returned %v, want context.Canceled", err)
	}
}

func TestGridSearchCVPicksBest(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	X, y := linearData(rng, 200)
	base := gbt.DefaultParams()
	base.NumTrees = 30
	// Depth 0 trees cannot fit x-dependent signal; depth 4 can. The
	// search must prefer depth 4.
	grid := ParamGrid(base, []float64{base.LearningRate}, []int{0, 4}, []int{base.NumTrees}, []float64{base.Lambda})
	best, rmse, err := gridSearchCV(context.Background(), grid, X, y, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rmse) != 2 {
		t.Fatalf("got %d results, want 2", len(rmse))
	}
	if grid[best].MaxDepth != 4 {
		t.Errorf("best depth = %d, want 4 (RMSE per combination: %v)", grid[best].MaxDepth, rmse)
	}
	for _, r := range rmse {
		if rmse[best] > r {
			t.Errorf("best %g is not minimal (saw %g)", rmse[best], r)
		}
	}
	if _, _, err := gridSearchCV(context.Background(), nil, X, y, 3, rng); err == nil {
		t.Error("expected error for an empty grid")
	}
}

// TestGridSearchCVContextCancelsMidFit pins the mid-fit cancellation
// path: one slow-training grid combination (a huge tree budget on a
// sizeable matrix), cancelled shortly after the search starts, must
// return context.Canceled long before the combination's fit could
// finish — the ctx is observed inside each fold's fit, not just
// between grid combinations.
func TestGridSearchCVContextCancelsMidFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	X, y := linearData(rng, 5000)
	p := gbt.DefaultParams()
	p.NumTrees = 1_000_000 // hours of boosting, uncancelled
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := gridSearchCV(ctx, []gbt.Params{p}, X, y, 3, rng)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gridSearchCV returned %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled gridSearchCV took %s, want prompt mid-fit return", elapsed)
	}
}
