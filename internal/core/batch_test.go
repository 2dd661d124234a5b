package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
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

// TestFindBatchMatchesScalar is the differential test of the one
// prediction path: a finder predicting row by row through the
// surrogate's StatFn and the same finder with the compiled kernel
// attached (AttachBatch) give byte-identical answers, for every query
// kind and worker count, incumbents included. GOMAXPROCS is raised to
// at least 4 so that the workers=4 rows shard four ways on any host.
func TestFindBatchMatchesScalar(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	s, ds := batchTestSurrogate(t, 6000, 800)
	find := func(f *Finder, cfg FinderConfig) (*FindResult, error) { return f.Find(cfg) }
	extents := func(f *Finder, cfg FinderConfig) (*FindResult, error) {
		return f.FindExtentsContext(context.Background(), cfg)
	}
	topK := func(f *Finder, cfg FinderConfig) (*FindResult, error) {
		return f.FindTopKContext(context.Background(), TopKConfig{K: 3, Largest: cfg.Dir == Above, GSO: cfg.GSO})
	}
	tests := []struct {
		name    string
		query   func(*Finder, FinderConfig) (*FindResult, error)
		dir     Direction
		workers int
		stream  bool
	}{
		{name: "threshold", query: find},
		{name: "threshold/workers=4", query: find, workers: 4},
		{name: "cluster_extents", query: extents},
		{name: "topk/largest", query: topK},
		{name: "topk/smallest/workers=4", query: topK, dir: Below, workers: 4},
		{name: "stream", query: find, stream: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			answer := func(attach bool) (*FindResult, []Region) {
				f, err := NewFinder(s.StatFn(), ds.Domain())
				if err != nil {
					t.Fatal(err)
				}
				if attach {
					f.AttachBatch(s.Kernel())
				}
				cfg := FinderConfig{
					Threshold: ds.SuggestedYR, Dir: tt.dir, C: 4,
					GSO: gso.Params{MaxIters: 40, Seed: 5, Workers: tt.workers},
				}
				var incumbents []Region
				if tt.stream {
					cfg.OnRegion = func(r Region) { incumbents = append(incumbents, r) }
				}
				res, err := tt.query(f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, incumbents
			}
			want, wantInc := answer(false)
			got, gotInc := answer(true)
			if len(want.Regions) == 0 {
				t.Fatal("no regions found")
			}
			assertSameRegions(t, want.Regions, got.Regions)
			if want.ValidFrac != got.ValidFrac || want.Swarm.Evaluations != got.Swarm.Evaluations {
				t.Errorf("valid fraction/evaluations %v/%d, want %v/%d",
					got.ValidFrac, got.Swarm.Evaluations, want.ValidFrac, want.Swarm.Evaluations)
			}
			if tt.stream && len(wantInc) == 0 {
				t.Fatal("stream delivered no incumbents")
			}
			assertSameRegions(t, wantInc, gotInc)
		})
	}
}

// TestFindBoundedMatchesFullWalk is the differential test of the
// bounded walk: a surrogate finder's threshold find, whose swarm
// predicts through the kernel's PredictSide, returns the answer of the
// same find through the full walk (the kernel attached behind a
// countingPredictor, which hides its type) — same
// regions, and the same swarm fitness, validity, luciferin and
// positions bit for bit — in both directions, for one and two workers,
// and at thresholds no region meets and every region meets.
func TestFindBoundedMatchesFullWalk(t *testing.T) {
	s, ds := batchTestSurrogate(t, 6000, 800)
	thresholds := []struct {
		name      string
		above, bl float64 // yR for Above and for Below
	}{
		{"suggested", ds.SuggestedYR, ds.SuggestedYR / 4},
		{"none-meets", 1e12, -1e12},
		{"all-meet", -1e12, 1e12},
	}
	for _, th := range thresholds {
		for _, dir := range []Direction{Above, Below} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%v/workers=%d", th.name, dir, workers), func(t *testing.T) {
					cfg := FinderConfig{
						Threshold: th.above, Dir: dir, C: 4,
						GSO: gso.Params{MaxIters: 40, Seed: 5, Workers: workers},
					}
					if dir == Below {
						cfg.Threshold = th.bl
					}
					answer := func(full bool) *FindResult {
						f, err := NewSurrogateFinder(s, ds.Domain())
						if err != nil {
							t.Fatal(err)
						}
						if full {
							f.AttachBatch(&countingPredictor{pred: s.Kernel()})
						}
						obj, err := f.thresholdObjective(cfg.withDefaults(2))
						if _, bounded := obj.pred.(sidePredictor); err != nil || bounded == full {
							t.Fatalf("full walk %v: objective predicts through %T (%v)", full, obj.pred, err)
						}
						res, err := f.Find(cfg)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					want, got := answer(true), answer(false)
					if th.name == "suggested" && len(want.Regions) == 0 {
						t.Fatal("no regions found")
					}
					assertSameRegions(t, want.Regions, got.Regions)
					w, g := want.Swarm, got.Swarm
					if w.Evaluations != g.Evaluations || len(w.Fitness) != len(g.Fitness) {
						t.Fatalf("evaluations %d over %d worms, want %d over %d", g.Evaluations, len(g.Fitness), w.Evaluations, len(w.Fitness))
					}
					for i := range w.Fitness {
						if !sameFloat(g.Fitness[i], w.Fitness[i]) || g.Valid[i] != w.Valid[i] || !sameFloat(g.Luciferin[i], w.Luciferin[i]) {
							t.Fatalf("worm %d: fitness/valid/luciferin (%v,%v,%v), want (%v,%v,%v)",
								i, g.Fitness[i], g.Valid[i], g.Luciferin[i], w.Fitness[i], w.Valid[i], w.Luciferin[i])
						}
						for j := range w.Positions[i] {
							if !sameFloat(g.Positions[i][j], w.Positions[i][j]) {
								t.Fatalf("worm %d coordinate %d: %v, want %v", i, j, g.Positions[i][j], w.Positions[i][j])
							}
						}
					}
				})
			}
		}
	}
}

// countingPredictor passes predictions through to pred and counts the
// calls and the rows predicted.
type countingPredictor struct {
	pred        BatchPredictor
	calls, rows atomic.Int64
}

func (c *countingPredictor) PredictBatch(rows [][]float64, out []float64) {
	c.calls.Add(1)
	c.rows.Add(int64(len(rows)))
	c.pred.PredictBatch(rows, out)
}

// afterSwarm returns an OnIteration observer and a function reporting
// the predictor calls and rows made after the swarm's last iteration.
func (c *countingPredictor) afterSwarm(iters int) (func(gso.IterStats), func() (calls, rows int64)) {
	calls, rows := int64(-1), int64(-1)
	observe := func(it gso.IterStats) {
		if it.Iteration == iters-1 {
			calls, rows = c.calls.Load(), c.rows.Load()
		}
	}
	return observe, func() (int64, int64) {
		if calls < 0 {
			return -1, -1
		}
		return c.calls.Load() - calls, c.rows.Load() - rows
	}
}

// TestFindRescoresInOneBatch: after the swarm, a threshold find
// predicts twice: once over the final valid particles, re-scored in
// one batch, and once over the returned regions' estimates.
func TestFindRescoresInOneBatch(t *testing.T) {
	s, ds := batchTestSurrogate(t, 6000, 800)
	f, err := NewSurrogateFinder(s, ds.Domain())
	if err != nil {
		t.Fatal(err)
	}
	pred := &countingPredictor{pred: s.Kernel()}
	f.AttachBatch(pred)
	cfg := FinderConfig{Threshold: ds.SuggestedYR, Dir: Above, C: 4, GSO: gso.Params{MaxIters: 40, Seed: 5}}
	var after func() (int64, int64)
	cfg.OnIteration, after = pred.afterSwarm(cfg.GSO.MaxIters)
	res, err := f.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, ok := range res.Swarm.Valid {
		if ok {
			valid++
		}
	}
	calls, rows := after()
	if len(res.Regions) == 0 || calls != 2 || rows != int64(valid+len(res.Regions)) {
		t.Fatalf("%d predictor calls over %d rows after the swarm, want 2 over %d valid particles + %d regions",
			calls, rows, valid, len(res.Regions))
	}
}

// TestFindExtentsEstimatesOnlyExtents: after the swarm, a
// cluster-extent find predicts the statistic once, over the returned
// extents only, and returns the extents ClusterExtents reports over
// FindContext's swarm.
func TestFindExtentsEstimatesOnlyExtents(t *testing.T) {
	s, ds := batchTestSurrogate(t, 6000, 800)
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, ds.Data.Len())
	for i := range points {
		points[i] = ds.Data.Row(i)[:2]
	}
	tests := []struct {
		name       string
		pred       BatchPredictor
		kde        bool
		maxRegions int
	}{
		{name: "true-function", pred: statPredictor(StatFnFromEvaluator(ev))},
		{name: "surrogate/scalar", pred: statPredictor(s.StatFn())},
		{name: "surrogate/batch", pred: s.Kernel()},
		{name: "surrogate/batch/kde", pred: s.Kernel(), kde: true},
		{name: "surrogate/batch/max-regions=1", pred: s.Kernel(), maxRegions: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := NewSurrogateFinder(s, ds.Domain())
			if err != nil {
				t.Fatal(err)
			}
			pred := &countingPredictor{pred: tt.pred}
			f.AttachBatch(pred)
			if tt.kde {
				if err := f.AttachDensity(points, 300, 1); err != nil {
					t.Fatal(err)
				}
			}
			cfg := FinderConfig{
				Threshold: ds.SuggestedYR, Dir: Above, UseKDE: tt.kde, MaxRegions: tt.maxRegions,
				GSO: gso.Params{MaxIters: 30, Seed: 5},
			}
			var after func() (int64, int64)
			cfg.OnIteration, after = pred.afterSwarm(cfg.GSO.MaxIters)
			got, err := f.FindExtentsContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Regions) == 0 {
				t.Fatal("no extents found")
			}
			if calls, rows := after(); calls != 1 || rows != int64(len(got.Regions)) {
				t.Errorf("%d predictor calls over %d rows after the swarm, want 1 over %d extents", calls, rows, len(got.Regions))
			}
			cfg.OnIteration = nil
			res, err := f.FindContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRegions(t, f.ClusterExtents(res.Swarm, ExtentClusterEps, cmp.Or(tt.maxRegions, DefaultMaxRegions)), got.Regions)
		})
	}
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

// sameFloat reports bit-identical values, any two NaNs alike.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// BenchmarkSwarmStep measures surrogate-backed mining through each
// predictor a finder can hold: the StatFn predicted row by row
// (statfn) and the compiled kernel, one model pass per swarm shard
// (kernel). It reports the rows the swarm evaluated per run (rows/op),
// which the worms that stay put keep below L·T; T = 100 is the
// engine's default budget, where most of that saving falls.
func BenchmarkSwarmStep(b *testing.B) {
	s, ds := batchTestSurrogate(b, 6000, 800)
	for _, p := range []struct {
		name string
		pred BatchPredictor
	}{
		{"statfn", statPredictor(s.StatFn())},
		{"kernel", s.Kernel()},
	} {
		for _, iters := range []int{25, 100} {
			b.Run(fmt.Sprintf("%s/T=%d", p.name, iters), func(b *testing.B) {
				finder, err := NewSurrogateFinder(s, ds.Domain())
				if err != nil {
					b.Fatal(err)
				}
				finder.AttachBatch(p.pred)
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
			})
		}
	}
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

	fresh, err := s.ContinueTrainingContext(context.Background(), 20, log)
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
		if want := fresh.Model().Compile().Predict1(r); out[i] != want {
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
	if _, err := s.ContinueTrainingContext(context.Background(), 5, nil); err == nil {
		t.Error("expected error for empty continuation log")
	}
}
