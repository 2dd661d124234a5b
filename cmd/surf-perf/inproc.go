package main

import (
	"context"
	"math"
	"runtime"
	"time"

	surf "surf"
)

// runFind drives find-surrogate and find-kde: one in-process caller,
// closed loop, Engine.FindContext with a fresh swarm seed per query and
// verification on. Traced runs send every measured query through the
// replica as well and require the two answers to agree bit for bit.
func runFind(ctx context.Context, r *runner, kind findKind) error {
	in, sc := r.in, r.cfg.sc
	setups := make([]float64, sc.Builds)
	var eng *surf.Engine
	r.setup[0] = time.Now()
	for b := range setups {
		eng = nil
		runtime.GC()
		start := time.Now()
		e, err := surf.Open(in.ds, engineConfig)
		if err != nil {
			return err
		}
		wl, err := e.GenerateWorkloadContext(ctx, sc.TrainQueries, trainSeed)
		if err != nil {
			return err
		}
		if err := e.TrainSurrogateContext(ctx, wl, surf.TrainOptions{Seed: trainSeed}); err != nil {
			return err
		}
		setups[b] = time.Since(start).Seconds()
		eng = e
	}
	r.setup[1] = time.Now()
	r.metrics.set("setup_s", "s", median(setups))

	var rep *replica
	if r.tr != nil {
		var err error
		if rep, err = newReplica(ctx, r.tr, eng, in.ds, sc.TrainQueries); err != nil {
			return err
		}
	}
	r.calibrate(0)
	warm := sc.WarmSurrogate
	if kind == kindKDE {
		warm = sc.WarmKDE
	}
	for i := 0; i < warm; i++ {
		if _, err := eng.FindContext(ctx, in.find(kind, streamWarm, uint64(i))); err != nil {
			return err
		}
	}

	var lat, overhead []float64
	cacheBefore := eng.CacheStats()
	w := r.newWindow()
	for i := 0; !w.over(len(lat)); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := in.find(kind, streamMeasure, uint64(i))
		r.attempted++
		var err error
		start := time.Now()
		if rep == nil {
			_, err = eng.FindContext(ctx, q)
		} else {
			_, err = r.tracedFind(ctx, rep, eng, i+1, q, &overhead)
		}
		if err != nil {
			r.failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, sinceMs(start))
	}
	elapsed := r.windowEnd(w)
	r.calibrate(1)
	hits := eng.CacheStats().Hits - cacheBefore.Hits
	r.check(hits == 0, "%d result-cache hits among %d measured queries with distinct seeds", hits, len(lat))
	r.metrics.set("cache.hit_ratio", "ratio", float64(hits)/float64(len(lat)))

	// The probe list runs twice: the second pass must hit the result
	// cache and return the first answers unchanged.
	probes, first, err := r.probeCompliance(kind, func(q surf.Query) (*surf.Result, error) { return eng.FindContext(ctx, q) })
	if err != nil {
		return err
	}
	before := eng.CacheStats().Hits
	for j, q := range probes {
		id := r.tr.begin("cache.hit", 0, 0)
		got, err := eng.FindContext(ctx, q)
		r.tr.end(id, 1)
		if err != nil {
			return err
		}
		r.check(sameResult(got, first[j]), "cached replay of probe %d differs from its first answer", j)
	}
	replayHits := eng.CacheStats().Hits - before
	r.check(replayHits == uint64(len(probes)), "%d of %d probe replays hit the result cache", replayHits, len(probes))
	if rep != nil {
		if err := r.timeEngineHits(ctx, eng, probes[:min(probeQueries, len(probes))]); err != nil {
			return err
		}
		own := make([]surf.Query, streamPasses)
		for i := range own {
			own[i] = in.find(kind, streamMeasure, uint64(i))
		}
		if err := r.traceTail(ctx, rep, eng, in.ds, own, overhead); err != nil {
			return err
		}
	}

	if err := r.latencySummary("find", lat); err != nil && r.tr == nil {
		return err
	}
	r.metrics.set("throughput_qps", "1/s", float64(len(lat)-r.failed)/elapsed.Seconds())
	r.metrics.set("heap_live_mb", "MB", heapLiveMB())
	runtime.KeepAlive(eng)
	return nil
}

// tracedFind runs q through the replica and through the engine and
// checks parity.
func (r *runner) tracedFind(ctx context.Context, rep *replica, eng *surf.Engine, req int, q surf.Query, overhead *[]float64) (*surf.Result, error) {
	start := time.Now()
	want, err := rep.run(ctx, req, q)
	if err != nil {
		return nil, err
	}
	replicaMs := sinceMs(start)
	start = time.Now()
	got, err := eng.FindContext(ctx, q)
	if err != nil {
		return nil, err
	}
	engineMs := sinceMs(start)
	*overhead = append(*overhead, (replicaMs-engineMs)/engineMs*100)
	r.check(sameResult(want, got), "replica answer for query %d differs from Engine.Find", req)
	if rep.density != nil {
		rep.boxMass(rep.density, req)
	}
	return got, nil
}
