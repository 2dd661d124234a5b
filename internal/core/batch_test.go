package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"surf/internal/dataset"
	"surf/internal/gbt"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/synth"
)

// batchTestSurrogate trains a small surrogate over a clustered
// synthetic dataset and returns it with the dataset.
func batchTestSurrogate(tb testing.TB, n, workload int) (*Surrogate, *synth.Dataset) {
	tb.Helper()
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 2, Stat: synth.Density, N: n, Seed: 91})
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		tb.Fatal(err)
	}
	log, err := synth.GenerateWorkload(ev, ds.Domain(), synth.DefaultWorkloadConfig(workload))
	if err != nil {
		tb.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.NumTrees = 60
	s, err := TrainSurrogate(log, p)
	if err != nil {
		tb.Fatal(err)
	}
	return s, ds
}

// TestSurrogatePredictBatchMatchesPredict: the batch entry point must
// agree bit-for-bit with per-region Predict over [x, l] rows.
func TestSurrogatePredictBatchMatchesPredict(t *testing.T) {
	s, _ := batchTestSurrogate(t, 4000, 600)
	rows := make([][]float64, 128)
	out := make([]float64, len(rows))
	for i := range rows {
		f := float64(i) / float64(len(rows))
		rows[i] = []float64{f, 1 - f, 0.05 + f/10, 0.12 - f/10}
	}
	s.PredictBatch(rows, out)
	for i, r := range rows {
		x, l := geom.DecodeRegion(r)
		if want := s.Predict(x, l); out[i] != want {
			t.Fatalf("row %d: PredictBatch %v != Predict %v", i, out[i], want)
		}
	}
}

// TestFindBatchMatchesScalar: attaching the compiled batch predictor
// must not change mining results — same regions, scores and estimates
// for a fixed seed, sequential or sharded.
func TestFindBatchMatchesScalar(t *testing.T) {
	s, ds := batchTestSurrogate(t, 6000, 800)
	cfg := FinderConfig{
		Threshold: ds.SuggestedYR,
		Dir:       Above,
		C:         4,
		GSO:       gso.Params{MaxIters: 40, Seed: 5},
	}

	scalar, err := NewFinder(s.StatFn(), ds.Domain())
	if err != nil {
		t.Fatal(err)
	}
	base, err := scalar.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 4} {
		batched, err := NewSurrogateFinder(s, ds.Domain())
		if err != nil {
			t.Fatal(err)
		}
		bcfg := cfg
		bcfg.GSO.Workers = workers
		got, err := batched.Find(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRegions(t, base.Regions, got.Regions)
		if base.ValidFrac != got.ValidFrac {
			t.Errorf("workers=%d: ValidFrac %v != %v", workers, got.ValidFrac, base.ValidFrac)
		}
	}
}

// TestFindRescoresInOneBatch: with a batch predictor attached, the
// final swarm is re-scored in one batch, so the only scalar statistic
// calls left are the returned regions' estimates.
func TestFindRescoresInOneBatch(t *testing.T) {
	s, ds := batchTestSurrogate(t, 6000, 800)
	stat := s.StatFn()
	scalarCalls := 0
	f, err := NewFinder(func(x, l []float64) float64 {
		scalarCalls++
		return stat(x, l)
	}, ds.Domain())
	if err != nil {
		t.Fatal(err)
	}
	f.AttachBatch(s.Kernel())
	res, err := f.Find(FinderConfig{Threshold: ds.SuggestedYR, Dir: Above, C: 4, GSO: gso.Params{MaxIters: 40, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 || scalarCalls != len(res.Regions) {
		t.Fatalf("%d scalar statistic calls for %d regions", scalarCalls, len(res.Regions))
	}
}

// TestTopKBatchMatchesScalar is the FindTopKContext counterpart.
func TestTopKBatchMatchesScalar(t *testing.T) {
	s, ds := batchTestSurrogate(t, 4000, 600)
	cfg := TopKConfig{K: 3, Largest: true, GSO: gso.Params{MaxIters: 30, Seed: 9}}

	scalar, err := NewFinder(s.StatFn(), ds.Domain())
	if err != nil {
		t.Fatal(err)
	}
	base, err := scalar.FindTopKContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	batched, err := NewSurrogateFinder(s, ds.Domain())
	if err != nil {
		t.Fatal(err)
	}
	got, err := batched.FindTopKContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRegions(t, base.Regions, got.Regions)
}

func assertSameRegions(t *testing.T, want, got []Region) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d regions, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !sameFloat(g.Score, w.Score) || !sameFloat(g.Estimate, w.Estimate) || g.Worms != w.Worms {
			t.Fatalf("region %d: score/estimate/worms (%v,%v,%d) != (%v,%v,%d)",
				i, g.Score, g.Estimate, g.Worms, w.Score, w.Estimate, w.Worms)
		}
		for j := range w.Rect.Min {
			if g.Rect.Min[j] != w.Rect.Min[j] || g.Rect.Max[j] != w.Rect.Max[j] {
				t.Fatalf("region %d dimension %d: rect (%v,%v) != (%v,%v)",
					i, j, g.Rect.Min[j], g.Rect.Max[j], w.Rect.Min[j], w.Rect.Max[j])
			}
		}
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// BenchmarkSwarmStepScalar measures surrogate-backed mining through
// the scalar per-particle objective — the pre-batching hot path.
func BenchmarkSwarmStepScalar(b *testing.B) {
	s, ds := batchTestSurrogate(b, 6000, 800)
	benchSwarmStep(b, s, ds, false, 25)
}

// BenchmarkSwarmStepBatch measures the same mining run through the
// compiled batch predictor: one model pass per swarm iteration shard.
// It reports the rows the swarm evaluated per run (rows/op), which the
// worms that stay put keep below L·T; T = 100 is the engine's default
// budget, where most of that saving falls.
func BenchmarkSwarmStepBatch(b *testing.B) {
	s, ds := batchTestSurrogate(b, 6000, 800)
	for _, iters := range []int{25, 100} {
		b.Run(fmt.Sprintf("T=%d", iters), func(b *testing.B) {
			benchSwarmStep(b, s, ds, true, iters)
		})
	}
}

func benchSwarmStep(b *testing.B, s *Surrogate, ds *synth.Dataset, batch bool, iters int) {
	b.Helper()
	finder, err := NewFinder(s.StatFn(), ds.Domain())
	if err != nil {
		b.Fatal(err)
	}
	if batch {
		finder.AttachBatch(s.Kernel())
	}
	g := gso.DefaultParams()
	g.Glowworms = 200
	g.MaxIters = iters
	g.Seed = 3
	cfg := FinderConfig{Threshold: ds.SuggestedYR, Dir: Above, C: 4, GSO: g}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := finder.Find(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows += res.Swarm.Evaluations
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// TestSurrogateContinueTrainingRecompiles: incremental training must
// return a fresh surrogate whose compiled snapshot tracks the boosted
// model, leaving the original surrogate untouched.
func TestSurrogateContinueTrainingRecompiles(t *testing.T) {
	s, ds := batchTestSurrogate(t, 3000, 400)
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DefaultWorkloadConfig(200)
	cfg.Seed = 77
	log, err := synth.GenerateWorkload(ev, ds.Domain(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{0.4, 0.6, 0.05, 0.08}, {0.7, 0.2, 0.1, 0.06}}
	before := make([]float64, len(rows))
	s.PredictBatch(rows, before)

	fresh, err := s.ContinueTraining(20, log)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Model().NumTrees() != s.Model().NumTrees()+20 {
		t.Fatalf("fresh surrogate has %d trees, want %d (original must not grow: has %d)",
			fresh.Model().NumTrees(), s.Model().NumTrees()+20, s.Model().NumTrees())
	}
	out := make([]float64, len(rows))
	fresh.PredictBatch(rows, out)
	for i, r := range rows {
		if want := fresh.Model().Predict1(r); out[i] != want {
			t.Fatalf("row %d: compiled %v != continued model %v (stale snapshot)", i, out[i], want)
		}
	}
	// The original surrogate is immutable: same predictions as before.
	after := make([]float64, len(rows))
	s.PredictBatch(rows, after)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("row %d: original surrogate changed %v -> %v", i, before[i], after[i])
		}
	}
	if _, err := s.ContinueTraining(5, nil); err == nil {
		t.Error("expected error for empty continuation log")
	}
}
