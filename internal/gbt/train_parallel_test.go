package gbt

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"
)

// serializeModel returns the model's exact artifact bytes, the
// strictest equality the differential tests can ask for: identical
// bytes mean identical trees, thresholds, weights and metadata.
func serializeModel(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainContextWorkersBitIdentical is the differential proof behind
// the parallel trainer: for every Workers value the serialized model
// is byte-identical to the Workers=1 reference.
func TestTrainContextWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 1))
	X, y := synthRegression(rng, 3000)

	cases := []struct {
		name string
		tune func(*Params)
	}{
		{"default", func(p *Params) { p.NumTrees = 30 }},
		// Depth 10 on 3000 rows grows leaves down to the child-weight
		// floor of one row.
		{"deep-min-child", func(p *Params) {
			p.NumTrees = 15
			p.MaxDepth = 10
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, workers := range []int{1, 2, 8} {
				p := DefaultParams()
				tc.tune(&p)
				p.Workers = workers
				m, err := TrainContext(context.Background(), p, X, y)
				if err != nil {
					t.Fatal(err)
				}
				got := serializeModel(t, m)
				if workers == 1 {
					ref = got
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("Workers=%d model differs from Workers=1 reference", workers)
				}
			}
		})
	}
}

// TestTrainContextWorkersBitIdenticalLargeRows runs the differential
// proof above the row-chunking threshold (rowChunks > 1), where large
// nodes accumulate histograms as per-chunk partials merged in chunk
// order. This is the regime a review repro showed diverging when the
// chunked/unchunked choice leaked the worker count — the small-matrix
// cases above cannot catch it.
func TestTrainContextWorkersBitIdenticalLargeRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 1))
	X, y := synthRegression(rng, 3*rowChunkTarget)
	if rowChunks(len(X)) < 2 {
		t.Fatalf("test matrix of %d rows does not exercise row chunking", len(X))
	}
	var ref []byte
	for _, workers := range []int{1, 4} {
		p := DefaultParams()
		p.NumTrees = 12
		p.Workers = workers
		m, err := TrainContext(context.Background(), p, X, y)
		if err != nil {
			t.Fatal(err)
		}
		got := serializeModel(t, m)
		if workers == 1 {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("Workers=%d model differs from Workers=1 reference on %d rows", workers, len(X))
		}
	}
}

// TestTrainIsTrainContextAlias pins Train to its documented identity:
// exactly TrainContext(context.Background(), ...).
func TestTrainIsTrainContextAlias(t *testing.T) {
	rng := rand.New(rand.NewPCG(72, 1))
	X, y := synthRegression(rng, 500)
	p := DefaultParams()
	p.NumTrees = 20
	m1, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainContext(context.Background(), p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeModel(t, m1), serializeModel(t, m2)) {
		t.Fatal("Train and TrainContext(Background) produced different models")
	}
}

func TestTrainContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 1))
	X, y := synthRegression(rng, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := TrainContext(ctx, DefaultParams(), X, y)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled TrainContext returned %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatal("cancelled TrainContext returned a partial model")
	}
}

// TestTrainContextCancelMidTrain cancels a deliberately huge training
// run shortly after it starts and asserts a prompt ctx.Err() return —
// within one boosting round, not after the full tree budget.
func TestTrainContextCancelMidTrain(t *testing.T) {
	rng := rand.New(rand.NewPCG(74, 1))
	X, y := synthRegression(rng, 20000)
	p := DefaultParams()
	p.NumTrees = 1_000_000 // would run for hours uncancelled
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	m, err := TrainContext(ctx, p, X, y)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TrainContext returned %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatal("cancelled TrainContext returned a partial model")
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled TrainContext took %s, want prompt return", elapsed)
	}
}

// TestContinueTrainingContextWorkersBitIdentical extends the
// differential proof to continuation rounds.
func TestContinueTrainingContextWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(75, 1))
	X, y := synthRegression(rng, 1500)
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		p := DefaultParams()
		p.NumTrees = 10
		p.Workers = workers
		m, err := Train(p, X, y)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ContinueTrainingContext(context.Background(), 15, X, y); err != nil {
			t.Fatal(err)
		}
		got := serializeModel(t, m)
		if workers == 1 {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("Workers=%d continued model differs from Workers=1 reference", workers)
		}
	}
}

// TestContinueTrainingContextCancelLeavesModelUnchanged asserts the
// all-or-nothing commit: a cancelled continuation returns ctx.Err()
// and the model's artifact bytes are exactly what they were before.
func TestContinueTrainingContextCancelLeavesModelUnchanged(t *testing.T) {
	rng := rand.New(rand.NewPCG(76, 1))
	X, y := synthRegression(rng, 800)
	p := DefaultParams()
	p.NumTrees = 10
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	before := serializeModel(t, m)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err = m.ContinueTrainingContext(ctx, 1_000_000, X, y)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled continuation returned %v, want context.Canceled", err)
	}
	if m.NumTrees() != 10 {
		t.Fatalf("cancelled continuation left %d trees, want the original 10", m.NumTrees())
	}
	if !bytes.Equal(before, serializeModel(t, m)) {
		t.Fatal("cancelled continuation mutated the model")
	}
}

// TestSaveNormalizesWorkers pins the artifact invariant: Workers is an
// execution knob, so models trained with different Workers values
// serialize to identical bytes and load with Workers=0.
func TestSaveNormalizesWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	X, y := synthRegression(rng, 400)
	p := DefaultParams()
	p.NumTrees = 8
	p.Workers = 3
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Params().Workers != 0 {
		t.Errorf("loaded Workers = %d, want 0 (normalized away)", back.Params().Workers)
	}
	if m.Params().Workers != 3 {
		t.Errorf("Save mutated the in-memory model's Workers to %d", m.Params().Workers)
	}
}

func TestWorkersValidation(t *testing.T) {
	p := DefaultParams()
	p.Workers = -1
	if err := p.Validate(); err == nil {
		t.Error("negative Workers should be invalid")
	}
	p.Workers = 0
	if err := p.Validate(); err != nil {
		t.Errorf("Workers=0 should be valid (auto): %v", err)
	}
}

// TestRaggedTrainingRowRejected pins the up-front training-matrix
// width check: with Workers > 1 a ragged row would otherwise panic on
// a spawned goroutine, unrecoverable by any caller.
func TestRaggedTrainingRowRejected(t *testing.T) {
	rng := rand.New(rand.NewPCG(80, 1))
	X, y := synthRegression(rng, 50)
	X[20] = []float64{1} // too narrow
	if _, err := Train(DefaultParams(), X, y); err == nil {
		t.Error("expected error for ragged training row")
	}
}
