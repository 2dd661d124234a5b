package main

import (
	"context"
	"math"
	"math/rand/v2"

	surf "surf"
	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/gbt"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/kde"
	"surf/internal/stats"
)

// replica re-executes Engine.Find's query path from internal/core's
// public calls, timing each call into a layer: the kernel through a
// timed BatchPredictor and a timed scalar StatFn, the KDE fit, the
// swarm (core.Finder.FindContext) and verification against a timed
// evaluator. Every traced query is compared bit for bit with the
// engine's own answer, so the per-layer numbers describe the code the
// engine runs.
type replica struct {
	tr     *tracer
	data   *dataset.Dataset
	spec   dataset.Spec
	eval   dataset.Evaluator
	domain geom.Rect
	surr   *core.Surrogate
	log    dataset.QueryLog
	// parent and req tie spans opened inside core's callbacks to the
	// query being traced; a replica traces one query at a time.
	parent, req int
	// boxes are the last query's final swarm boxes and density its
	// fitted KDE (nil without use_kde), for timing KDE.BoxMass.
	boxes   []geom.Rect
	density *kde.KDE
}

var countSpec = dataset.Spec{FilterCols: []int{0, 1}, Stat: stats.Count}

// newReplica builds the replica over ds: the grid evaluator and domain
// the engine derives, plus a surrogate trained the way the engine
// trains one (workload generation through the public engine, timed as
// surf.generate_workload_s; training through core, timed as
// gbt.train_s) from the same seed, hence the same model.
func newReplica(ctx context.Context, tr *tracer, eng *surf.Engine, ds *surf.Dataset, queries int) (*replica, error) {
	r := &replica{tr: tr, spec: countSpec}
	if err := r.setData(ds); err != nil {
		return nil, err
	}
	id := tr.begin("surf.generate_workload", 0, 0)
	wl, err := eng.GenerateWorkloadContext(ctx, queries, trainSeed)
	tr.end(id, queries)
	if err != nil {
		return nil, err
	}
	for i := 0; i < wl.Len(); i++ {
		x, l, y := wl.Query(i)
		r.log = append(r.log, dataset.Query{X: x, L: l, Y: y})
	}
	params := gbt.DefaultParams()
	params.Seed = trainSeed
	id = tr.begin("gbt.train", 0, 0)
	r.surr, err = core.TrainSurrogateContext(ctx, r.log, params)
	tr.end(id, len(r.log))
	return r, err
}

// setData points the replica at a data version: its own grid index and
// the domain the engine derives from the same rows.
func (r *replica) setData(ds *surf.Dataset) error {
	cols := make([][]float64, len(columns))
	for j, name := range columns {
		cols[j] = ds.Column(name)
	}
	data, err := dataset.New(columns, cols)
	if err != nil {
		return err
	}
	ev, err := dataset.NewGridIndex(data, r.spec, 0)
	if err != nil {
		return err
	}
	r.data, r.eval, r.domain = data, ev, data.Domain(r.spec.FilterCols)
	return nil
}

// timedBatch is the kernel seen by the swarm's batch objective.
type timedBatch struct{ r *replica }

func (b timedBatch) PredictBatch(rows [][]float64, out []float64) {
	id := b.r.tr.begin("kernel.predict_batch", b.r.parent, b.r.req)
	b.r.surr.Kernel().PredictBatch(rows, out)
	b.r.tr.end(id, len(rows))
}

// predict1 is the surrogate's scalar StatFn (Surrogate.Predict: the
// [x, l] row through Predict1), timed per call.
func (r *replica) predict1(x, l []float64) float64 {
	id := r.tr.begin("kernel.predict1", r.parent, r.req)
	row := make([]float64, 0, len(x)+len(l))
	row = append(append(row, x...), l...)
	y := r.surr.Kernel().Predict1(row)
	r.tr.end(id, 1)
	return y
}

// evaluate is the true statistic (StatFnFromEvaluator), timed per call.
func (r *replica) evaluate(x, l []float64) float64 {
	id := r.tr.begin("dataset.eval", r.parent, r.req)
	y, _ := r.eval.Evaluate(geom.FromCenter(x, l))
	r.tr.end(id, 1)
	return y
}

// under runs fn with spans parented to span id.
func (r *replica) under(id int, fn func()) {
	prev := r.parent
	r.parent = id
	fn()
	r.parent = prev
}

// gsoParams mirrors the engine's swarm defaulting: L = 50·2d unless
// overridden, the query's iteration budget and seed.
func gsoParams(dims int, q surf.Query) gso.Params {
	g := gso.DefaultParams()
	g.Glowworms = 50 * 2 * dims
	if q.Glowworms > 0 {
		g.Glowworms = q.Glowworms
	}
	if q.Iterations > 0 {
		g.MaxIters = q.Iterations
	}
	if q.Seed > 0 {
		g.Seed = q.Seed
	}
	if q.Workers > 1 {
		g.Workers = q.Workers
	}
	return g
}

// run executes q as request req and returns the Result Engine.Find
// would.
func (r *replica) run(ctx context.Context, req int, q surf.Query) (*surf.Result, error) {
	root := r.tr.begin("replica.query", 0, req)
	defer r.tr.end(root, 0)
	r.parent, r.req = root, req
	var finder *core.Finder
	var err error
	if q.UseTrueFunction {
		finder, err = core.NewFinder(r.evaluate, r.domain)
	} else {
		finder, err = core.NewFinder(r.predict1, r.domain)
		if err == nil {
			finder.AttachBatch(timedBatch{r})
		}
	}
	if err != nil {
		return nil, err
	}
	if q.UseKDE {
		sample := q.KDESample
		if sample == 0 {
			sample = 1000
		}
		id := r.tr.begin("kde.fit", root, req)
		err = finder.AttachDensity(r.points(), sample, q.Seed+17)
		r.tr.end(id, sample)
		if err != nil {
			return nil, err
		}
	}
	dir := core.Below
	if q.Above {
		dir = core.Above
	}
	cfg := core.FinderConfig{
		Threshold: q.Threshold, Dir: dir, C: q.C, MaxRegions: q.MaxRegions,
		UseKDE: q.UseKDE, MinSideFrac: q.MinSideFrac, MaxSideFrac: q.MaxSideFrac,
		GSO: gsoParams(r.domain.Dims(), q),
	}
	var res *core.FindResult
	id := r.tr.begin("core.find", root, req)
	r.under(id, func() { res, err = finder.FindContext(ctx, cfg) })
	r.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	r.density, r.boxes = finder.Density(), r.boxes[:0]
	for _, pos := range res.Swarm.Positions {
		r.boxes = append(r.boxes, geom.FromCenter(geom.DecodeRegion(pos)).Clip(r.domain))
	}
	compliance := math.NaN()
	if !q.SkipVerify {
		objCfg := core.ObjectiveConfig{YR: cfg.Threshold, Dir: dir, C: cfg.C}
		if objCfg.C == 0 {
			objCfg.C = core.DefaultC
		}
		id = r.tr.begin("core.verify", root, req)
		r.under(id, func() { compliance, err = core.VerifyContext(ctx, res.Regions, r.evaluate, objCfg) })
		r.tr.end(id, len(res.Regions))
		if err != nil {
			return nil, err
		}
	}
	out := &surf.Result{ValidParticleFraction: res.ValidFrac, ComplianceRate: compliance}
	for _, reg := range res.Regions {
		out.Regions = append(out.Regions, surf.Region{
			Min: append([]float64(nil), reg.Rect.Min...), Max: append([]float64(nil), reg.Rect.Max...),
			Estimate: reg.Estimate, Score: reg.Score, Worms: reg.Worms,
			TrueValue: reg.TrueValue, Verified: reg.Verified, Satisfies: reg.SatisfiesTrue,
		})
	}
	return out, nil
}

// points materializes the filter columns row by row, as the engine
// does for every use_kde query; the copy is part of the fit's cost.
func (r *replica) points() [][]float64 {
	pts := make([][]float64, r.data.Len())
	for i := range pts {
		row := make([]float64, len(r.spec.FilterCols))
		for j, c := range r.spec.FilterCols {
			row[j] = r.data.Col(c)[i]
		}
		pts[i] = row
	}
	return pts
}

// fitDensity times a default-sample KDE fit over the replica's data,
// for workloads whose own queries fit none.
func (r *replica) fitDensity(seed uint64) (*kde.KDE, error) {
	id := r.tr.begin("kde.fit", 0, 0)
	defer r.tr.end(id, 1000)
	return kde.Fit(r.points(), kde.Options{MaxSample: 1000, Rng: rand.New(rand.NewPCG(seed, 0xaef17502108ef2d9))})
}

// boxMassSample caps the swarm boxes timed per query.
const boxMassSample = 16

// boxMass times KDE.BoxMass over the last query's final swarm boxes.
func (r *replica) boxMass(k *kde.KDE, req int) {
	for _, box := range r.boxes[:min(boxMassSample, len(r.boxes))] {
		id := r.tr.begin("kde.boxmass", 0, req)
		k.BoxMass(box)
		r.tr.end(id, 1)
	}
}

// sameResult reports whether two results agree bit for bit, ignoring
// the wall-clock ElapsedSeconds.
func sameResult(a, b *surf.Result) bool {
	if a == nil || b == nil || len(a.Regions) != len(b.Regions) ||
		!sameFloat(a.ValidParticleFraction, b.ValidParticleFraction) ||
		!sameFloat(a.ComplianceRate, b.ComplianceRate) {
		return false
	}
	for i := range a.Regions {
		x, y := &a.Regions[i], &b.Regions[i]
		if !sameFloats(x.Min, y.Min) || !sameFloats(x.Max, y.Max) ||
			!sameFloat(x.Estimate, y.Estimate) || !sameFloat(x.Score, y.Score) ||
			!sameFloat(x.TrueValue, y.TrueValue) || x.Worms != y.Worms ||
			x.Verified != y.Verified || x.Satisfies != y.Satisfies {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}
