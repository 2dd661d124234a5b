package surf

import (
	"errors"
	"sync"
	"testing"
)

// inferenceEngine builds a small trained engine for the batch
// prediction tests.
func inferenceEngine(t *testing.T) *Engine {
	t.Helper()
	d := crimeGrid(5000, 31)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(900, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl); err != nil {
		t.Fatal(err)
	}
	return eng
}

// probeRows builds n flat [center..., halfSides...] rows for a 2-d
// engine.
func probeRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		f := float64(i) / float64(n)
		rows[i] = []float64{f, 1 - f, 0.04 + f/20, 0.1 - f/20}
	}
	return rows
}

// TestPredictStatisticBatch: the batch API must agree with per-region
// PredictStatistic bit-for-bit and validate its inputs.
func TestPredictStatisticBatch(t *testing.T) {
	eng := inferenceEngine(t)
	rows := probeRows(64)
	out := make([]float64, len(rows))
	if err := eng.PredictStatisticBatch(rows, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		want, err := eng.PredictStatistic(r[:2], r[2:])
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("row %d: batch %v != scalar %v", i, out[i], want)
		}
	}

	if err := eng.PredictStatisticBatch(rows, out[:10]); !errors.Is(err, ErrBadQuery) {
		t.Errorf("short output: got %v, want ErrBadQuery", err)
	}
	bad := probeRows(8)
	bad[5] = []float64{1, 2, 3}
	if err := eng.PredictStatisticBatch(bad, make([]float64, 8)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("bad row width: got %v, want ErrDimMismatch", err)
	}
}

// TestPredictStatisticShape: a region whose center or halfSides
// length differs from the engine's dimension is an ErrDimMismatch,
// never a panic.
func TestPredictStatisticShape(t *testing.T) {
	eng := inferenceEngine(t)
	predictors := []struct {
		name    string
		predict func(center, halfSides []float64) (float64, error)
	}{
		{"engine", eng.PredictStatistic},
	}
	tests := []struct {
		name              string
		center, halfSides []float64
	}{
		{"short center", []float64{0.5}, []float64{0.1, 0.1}},
		{"long center", []float64{0.5, 0.5, 0.5}, []float64{0.1, 0.1}},
		{"short halfSides", []float64{0.5, 0.5}, []float64{0.1}},
		{"long halfSides", []float64{0.5, 0.5}, []float64{0.1, 0.1, 0.1}},
	}
	for _, p := range predictors {
		for _, tt := range tests {
			t.Run(p.name+"/"+tt.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if _, err := p.predict(tt.center, tt.halfSides); !errors.Is(err, ErrDimMismatch) {
					t.Fatalf("got %v, want ErrDimMismatch", err)
				}
			})
		}
		if _, err := p.predict([]float64{0.5, 0.5}, []float64{0.1, 0.1}); err != nil {
			t.Fatalf("%s: well-shaped region: %v", p.name, err)
		}
	}
}

// TestPredictStatisticBatchRequiresSurrogate covers the no-model path.
func TestPredictStatisticBatchRequiresSurrogate(t *testing.T) {
	d := crimeGrid(500, 33)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.PredictStatisticBatch(probeRows(4), make([]float64, 4)); !errors.Is(err, ErrNoSurrogate) {
		t.Errorf("got %v, want ErrNoSurrogate", err)
	}
}

// TestConcurrentBatchPredictionDuringRetrain hammers the compiled
// predictor from several goroutines (batch probes and full Find
// queries) while the engine retrains and swaps surrogate snapshots —
// the race detector guards the atomic handoff of the compiled model.
func TestConcurrentBatchPredictionDuringRetrain(t *testing.T) {
	eng := inferenceEngine(t)
	wl, err := eng.GenerateWorkload(400, 35)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Retrainer: keep swapping fresh surrogate snapshots in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := eng.TrainSurrogate(wl, TrainOptions{Seed: uint64(i + 1)}); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
	}()

	// Batch probers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := probeRows(128)
			out := make([]float64, len(rows))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.PredictStatisticBatch(rows, out); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// A concurrent query exercising the batched swarm path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := Query{Threshold: 400, Above: true, Glowworms: 40, Iterations: 15, Workers: 2, SkipVerify: true, Seed: 77}
		for i := 0; i < 3; i++ {
			if _, err := eng.Find(q); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
}

// TestFindDeterministicAcrossWorkers: the public batched path must
// return identical results regardless of Workers, matching the
// documented contract.
func TestFindDeterministicAcrossWorkers(t *testing.T) {
	eng := inferenceEngine(t)
	q := Query{Threshold: 400, Above: true, Glowworms: 60, Iterations: 25, SkipVerify: true, Seed: 11}
	base, err := eng.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	q.Workers = 4
	got, err := eng.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Regions) != len(base.Regions) {
		t.Fatalf("%d regions with workers, %d without", len(got.Regions), len(base.Regions))
	}
	for i := range base.Regions {
		if got.Regions[i].Score != base.Regions[i].Score || got.Regions[i].Estimate != base.Regions[i].Estimate {
			t.Fatalf("region %d diverged across worker counts", i)
		}
	}
}
