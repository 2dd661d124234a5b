package main

import (
	"math/rand/v2"
	"sync"

	surf "surf"
	"surf/internal/synth"
)

// scale sizes a run. fullScale is the benchmark proper; toyScale keeps
// every code path but shrinks data and swarms so the smoke test runs
// all workloads in seconds.
type scale struct {
	Rows, Boost  int       // synth.Generate N and BoostPerRegion
	TrainQueries int       // generated training queries per surrogate
	Thresholds   []float64 // yR values the find lists cycle through
	Builds       int       // cold set-ups timed per run; setup_s is their median
	MinFinds     int       // measured finds a run needs before it may stop
	Probes       int       // queries of the fixed compliance probe list
	// Swarm sizes (0 = the engine default, L = 200 and T = 100 in 2-D).
	Glowworms, Iterations         int
	KDEGlowworms, KDEIterations   int
	KDESample                     int // 0 = the engine's default sample
	TrueGlowworms, TrueIterations int
	// Warm-up requests per workload, excluded from every metric.
	WarmSurrogate, WarmKDE, WarmHTTP, WarmLiving int
	ZipfIDs                                      int     // distinct find ids in http-mixed
	AppendRows                                   int     // rows per append batch
	AppendRate                                   float64 // appends per second in living-append
	ReplicaQueries                               int     // traced replica queries after a serving workload
}

var fullScale = scale{
	Rows: 1_000_000, Boost: 120_000, TrainQueries: 2000,
	Thresholds: []float64{80_000, 100_000, 120_000},
	Builds:     3, MinFinds: 100, Probes: 48,
	KDEGlowworms: 50, KDEIterations: 10,
	TrueGlowworms: 20, TrueIterations: 10,
	WarmSurrogate: 20, WarmKDE: 5, WarmHTTP: 200, WarmLiving: 5,
	ZipfIDs: 192, AppendRows: 100, AppendRate: 2, ReplicaQueries: 12,
}

var toyScale = scale{
	Rows: 20_000, Boost: 2_400, TrainQueries: 200,
	Thresholds: []float64{1_600, 2_000, 2_400},
	Builds:     2, MinFinds: 100, Probes: 8,
	Glowworms: 20, Iterations: 8,
	KDEGlowworms: 20, KDEIterations: 8, KDESample: 200,
	TrueGlowworms: 20, TrueIterations: 8,
	WarmSurrogate: 2, WarmKDE: 2, WarmHTTP: 10, WarmLiving: 2,
	ZipfIDs: 24, AppendRows: 100, AppendRate: 40, ReplicaQueries: 3,
}

// trainSeed seeds workload generation and training everywhere, so the
// registry's startup training and the harness's own agree.
const trainSeed = 7

// columns are the generated dataset's filter columns.
var columns = []string{"a1", "a2"}

// datasetSeed fixes the density-1m dataset: every run mines the same
// data and trains the same surrogate, and the run's seed varies only
// the requests, so runs with different seeds measure the same system.
const datasetSeed = 1

// input is a run's data — the density-1m dataset, three planted dense
// regions in 2-D — and the request lists derived from its seed.
type input struct {
	seed uint64
	sc   scale
	ds   *surf.Dataset
}

func newInput(seed uint64, sc scale) (*input, error) {
	gen, err := synth.Generate(synth.Config{
		Dims: 2, Regions: 3, Stat: synth.Density,
		N: sc.Rows, BoostPerRegion: sc.Boost, Seed: datasetSeed,
	})
	if err != nil {
		return nil, err
	}
	ds, err := surf.NewDataset(columns, [][]float64{gen.Data.Col(0), gen.Data.Col(1)})
	if err != nil {
		return nil, err
	}
	return &input{seed: seed, sc: sc, ds: ds}, nil
}

// engineConfig is the engine every workload serves: COUNT over the
// two filter columns through the grid index.
var engineConfig = surf.Config{FilterColumns: columns, Statistic: surf.Count, UseGridIndex: true}

// Request streams. Each list is a pure function of (seed, stream,
// index), so two runs with one seed send identical requests however
// far each gets, and streams never share a query seed. The probe list
// ignores the seed.
const (
	streamWarm uint64 = iota + 1
	streamMeasure
	streamZipf
	streamAppend
	streamReplica
	streamProbe
)

func (in *input) rng(stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(in.seed^0x9e3779b97f4a7c15, stream<<40|i))
}

// probeSeed seeds the compliance probe list in place of the run's seed.
const probeSeed = 0x70726f6265

// findKind selects a find list's query shape.
type findKind int

const (
	kindSurrogate findKind = iota
	kindKDE
	kindTrue
)

// find returns the i-th query of a find list: a threshold drawn from
// the scale's yR values and a fresh swarm seed, so no two queries of
// the lists share a result-cache entry.
func (in *input) find(kind findKind, stream, i uint64) surf.Query {
	return in.query(kind, in.rng(stream, i))
}

// probe returns the i-th query of the compliance probe list. It is the
// same for every seed, and the data and surrogate are too, so the
// probes' answers are identical in every run of the same code.
func (in *input) probe(kind findKind, i uint64) surf.Query {
	return in.query(kind, rand.New(rand.NewPCG(probeSeed, streamProbe<<40|i)))
}

func (in *input) query(kind findKind, r *rand.Rand) surf.Query {
	q := surf.Query{
		Threshold: in.sc.Thresholds[r.IntN(len(in.sc.Thresholds))],
		Above:     true,
		Seed:      r.Uint64() | 1,
	}
	switch kind {
	case kindSurrogate:
		q.Glowworms, q.Iterations = in.sc.Glowworms, in.sc.Iterations
	case kindKDE:
		q.UseKDE, q.KDESample = true, in.sc.KDESample
		q.Glowworms, q.Iterations = in.sc.KDEGlowworms, in.sc.KDEIterations
	case kindTrue:
		q.UseTrueFunction = true
		q.Glowworms, q.Iterations = in.sc.TrueGlowworms, in.sc.TrueIterations
	}
	return q
}

// zipfFind is the find query behind http-mixed id k: popular ids
// repeat, so the result cache answers most of them.
func (in *input) zipfFind(k uint64) surf.Query { return in.find(kindSurrogate, streamZipf, k) }

// zipfTopK is the top-k query behind id k.
func (in *input) zipfTopK(k uint64) surf.TopKQuery {
	return surf.TopKQuery{
		K: 3, Largest: true, Seed: in.rng(streamZipf, 1<<20|k).Uint64() | 1,
		Glowworms: in.sc.Glowworms, Iterations: in.sc.Iterations,
	}
}

// appendBatch returns the i-th append batch: rows uniform over the
// unit square, in the dataset's column order.
func (in *input) appendBatch(i uint64) [][]float64 {
	r := in.rng(streamAppend, i)
	rows := make([][]float64, in.sc.AppendRows)
	for j := range rows {
		rows[j] = []float64{r.Float64(), r.Float64()}
	}
	return rows
}

// opKind is one http-mixed request type.
type opKind int

const (
	opFind opKind = iota
	opStream
	opFindMany
	opTopK
)

// mixPattern is http-mixed's request mix per ten requests: find ×7,
// stream ×1, findmany ×1, topk ×1.
var mixPattern = [10]opKind{opFind, opFind, opFind, opStream, opFind, opFind, opFindMany, opFind, opFind, opTopK}

// mixedOp is one http-mixed request: its position in the list, its
// type and the Zipf ids it queries (two for findmany).
type mixedOp struct {
	index int
	kind  opKind
	ids   []uint64
}

// mixedList hands out http-mixed requests in list order to any number
// of clients. The sequence is a pure function of the seed; which
// client sends which request depends on timing.
type mixedList struct {
	mu   sync.Mutex
	next int
	zipf *rand.Zipf
}

func (in *input) newMixedList() *mixedList {
	r := rand.New(rand.NewPCG(in.seed, 0x5eed_21bf))
	return &mixedList{zipf: rand.NewZipf(r, 1.3, 1, uint64(in.sc.ZipfIDs-1))}
}

func (l *mixedList) take() mixedOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	op := mixedOp{index: l.next, kind: mixPattern[l.next%len(mixPattern)]}
	op.ids = []uint64{l.zipf.Uint64()}
	if op.kind == opFindMany {
		op.ids = append(op.ids, l.zipf.Uint64())
	}
	l.next++
	return op
}
