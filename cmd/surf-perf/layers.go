package main

import (
	"context"
	"time"

	surf "surf"
	"surf/drift"
)

// Traced runs report every per-layer metric on every workload. A layer
// the workload's own traffic leaves idle (KDE on find-surrogate, the
// server on find-*, the append path outside living-append) is timed by
// a short pass over the workload's data after the measured loop, so
// its value there is the layer's cost on that data, not a share of
// that workload's load.

// streamPasses and appendPasses size those trailing passes.
const (
	streamPasses = 3
	appendPasses = 3
)

// traceTail finishes a traced run: it times Engine.Stream's return and
// checks each drained stream against Find, fits a KDE when no query
// fitted one, times the append path on a copy of the data, and turns
// the spans into the per-layer metrics. queries are the workload's
// own find queries; ds is the data the append pass starts from.
func (r *runner) traceTail(ctx context.Context, rep *replica, eng *surf.Engine, ds *surf.Dataset, queries []surf.Query, overhead []float64) error {
	for i, q := range queries {
		want, err := eng.FindContext(ctx, q)
		if err != nil {
			return err
		}
		id := r.tr.begin("surf.stream_start", 0, 0)
		st, err := eng.Stream(ctx, q)
		r.tr.end(id, 0)
		if err != nil {
			return err
		}
		got, err := st.Result()
		if err != nil {
			return err
		}
		r.check(sameResult(got, want), "stream %d ended with a different result than Find", i)
	}
	if len(r.tr.named("kde.fit")) == 0 {
		k, err := rep.fitDensity(r.in.seed)
		if err != nil {
			return err
		}
		rep.boxMass(k, 0)
	}
	if err := r.appendPass(ctx, rep, ds); err != nil {
		return err
	}
	r.layerMetrics(overhead)
	return nil
}

// driftEngine is the engine a drift replay sees: truth from the
// appended data, predictions through the replica's timed kernel.
type driftEngine struct {
	eng *surf.Engine
	rep *replica
}

func (d driftEngine) Evaluate(c, h []float64) (float64, int) {
	id := d.rep.tr.begin("dataset.eval", d.rep.parent, 0)
	defer d.rep.tr.end(id, 1)
	return d.eng.Evaluate(c, h)
}

func (d driftEngine) PredictStatistic(c, h []float64) (float64, error) {
	return d.rep.predict1(c, h), nil
}

// appendPass times the living-data write path — Store.Append,
// Engine.SetDataset, drift.Evaluate over the registry's reservoir of
// training queries — on a private store over ds.
func (r *runner) appendPass(ctx context.Context, rep *replica, ds *surf.Dataset) error {
	eng, err := surf.Open(ds, engineConfig)
	if err != nil {
		return err
	}
	store, err := surf.NewStore(ds)
	if err != nil {
		return err
	}
	rsv := drift.NewReservoir(64, trainSeed+0x5eed)
	for _, q := range rep.log {
		rsv.Add(q.X, q.L)
	}
	for i := 0; i < appendPasses; i++ {
		rows := r.in.appendBatch(1<<32 + uint64(i))
		id := r.tr.begin("dataset.store_append", 0, 0)
		_, err := store.Append(rows)
		r.tr.end(id, len(rows))
		if err != nil {
			return err
		}
		view, version := store.View()
		id = r.tr.begin("surf.set_dataset", 0, 0)
		err = eng.SetDataset(view, version)
		r.tr.end(id, view.Len())
		if err != nil {
			return err
		}
		id = r.tr.begin("drift.evaluate", 0, 0)
		rep.parent, rep.req = id, 0
		_, err = drift.Evaluate(ctx, driftEngine{eng, rep}, rsv.Samples())
		r.tr.end(id, rsv.Len())
		if err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans.
func (r *runner) layerMetrics(overhead []float64) {
	tr, m := r.tr, r.metrics
	queries := tr.named("replica.query")
	nq := float64(len(queries))
	var queryTime time.Duration
	for i := range queries {
		queryTime += queries[i].dur()
	}

	// Kernel cost per row counts every timed kernel call, the drift
	// replays' included (on living-append they are its only ones);
	// the per-query figures count calls made inside replica queries.
	var kernelTime, queryKernelTime time.Duration
	var rows, queryRows, scalarCalls int
	for _, s := range append(tr.named("kernel.predict_batch"), tr.named("kernel.predict1")...) {
		kernelTime += s.dur()
		rows += s.Work
		if s.Req > 0 {
			queryKernelTime += s.dur()
			queryRows += s.Work
			if s.Name == "kernel.predict1" {
				scalarCalls++
			}
		}
	}
	m.set("kernel.ns_per_row", "ns", float64(kernelTime)/float64(rows))
	m.set("kernel.rows_per_query", "count", float64(queryRows)/nq)
	m.set("kernel.busy_share", "ratio", float64(queryKernelTime)/float64(queryTime))
	m.set("kernel.scalar_calls_per_query", "count", float64(scalarCalls)/nq)

	var swarm []float64
	for _, d := range tr.selfTimes("core.find") {
		swarm = append(swarm, ms(d))
	}
	m.set("core.swarm_self_ms", "ms", median(swarm))
	verify := tr.named("core.verify")
	m.set("core.verify_ms", "ms", median(durationsMs(verify)))
	regions := 0
	for _, s := range verify {
		regions += s.Work
	}
	m.set("core.regions_per_query", "count", float64(regions)/nq)

	evals := tr.named("dataset.eval")
	queryEvals := 0
	for _, s := range evals {
		if s.Req > 0 {
			queryEvals++
		}
	}
	m.set("dataset.eval_us", "us", 1000*median(durationsMs(evals)))
	m.set("dataset.evals_per_query", "count", float64(queryEvals)/nq)

	m.set("kde.fit_ms", "ms", median(durationsMs(tr.named("kde.fit"))))
	m.set("kde.boxmass_us", "us", 1000*median(durationsMs(tr.named("kde.boxmass"))))
	m.set("surf.stream_start_ms", "ms", median(durationsMs(tr.named("surf.stream_start"))))
	m.set("cache.hit_us", "us", 1000*median(durationsMs(tr.named("cache.hit"))))
	m.set("dataset.store_append_ms", "ms", median(durationsMs(tr.named("dataset.store_append"))))
	m.set("surf.set_dataset_ms", "ms", median(durationsMs(tr.named("surf.set_dataset"))))
	m.set("drift.evaluate_ms", "ms", median(durationsMs(tr.named("drift.evaluate"))))
	m.set("surf.generate_workload_s", "s", median(durationsMs(tr.named("surf.generate_workload")))/1000)
	m.set("gbt.train_s", "s", median(durationsMs(tr.named("gbt.train")))/1000)
	m.set("harness.calibration_ms", "ms", (r.cal[0]+r.cal[1])/2)
	m.set("harness.trace_overhead_pct", "%", median(overhead))
}
