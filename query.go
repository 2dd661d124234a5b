package surf

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"

	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/gso"
	"surf/internal/synth"
)

// Workload is a log of past region evaluations used as surrogate
// training data.
type Workload struct {
	log dataset.QueryLog
}

// Len returns the number of logged queries.
func (w Workload) Len() int { return len(w.log) }

// Labels returns the logged statistic values, one per query — useful
// for picking data-driven thresholds (e.g. the paper's yR = Q3 of
// random region evaluations).
func (w Workload) Labels() []float64 {
	out := make([]float64, len(w.log))
	for i, q := range w.log {
		out[i] = q.Y
	}
	return out
}

// WriteCSV serializes the workload (x1..xd, l1..ld, y columns).
func (w Workload) WriteCSV(out io.Writer) error { return w.log.WriteCSV(out) }

// ReadWorkloadCSV reads a workload written by WriteCSV.
func ReadWorkloadCSV(r io.Reader) (Workload, error) {
	log, err := dataset.ReadQueryLogCSV(r)
	if err != nil {
		return Workload{}, err
	}
	return Workload{log: log}, nil
}

// GenerateWorkload executes n random region queries against the true
// evaluator (centers uniform over the domain, half-sides 1–15% of the
// extent, the paper's training workload) and returns the log.
func (e *Engine) GenerateWorkload(n int, seed uint64) (Workload, error) {
	return e.GenerateWorkloadContext(context.Background(), n, seed)
}

// GenerateWorkloadContext is GenerateWorkload with cancellation,
// checked before each true-function evaluation. The whole workload is
// generated against one pinned data view, so a concurrent SetDataset
// cannot mix data versions within a single training set.
func (e *Engine) GenerateWorkloadContext(ctx context.Context, n int, seed uint64) (Workload, error) {
	v := e.view()
	cfg := synth.DefaultWorkloadConfig(n)
	cfg.Seed = seed
	log, err := synth.GenerateWorkloadContext(ctx, v.evaluator, v.domain, cfg)
	if err != nil {
		return Workload{}, err
	}
	return Workload{log: log}, nil
}

// Query returns the i-th logged evaluation as (center, halfSides,
// value) — the region the workload executed and the true statistic it
// observed. Drift monitors replay these against the latest data
// version to measure how far a trained surrogate has fallen behind.
func (w Workload) Query(i int) (center, halfSides []float64, y float64) {
	q := w.log[i]
	return append([]float64(nil), q.X...), append([]float64(nil), q.L...), q.Y
}

// Query is one mining request.
type Query struct {
	// Threshold is the statistic cut-off yR.
	Threshold float64 `json:"threshold"`
	// Above selects regions with f > Threshold; false selects f <
	// Threshold.
	Above bool `json:"above"`
	// C is the region-size regularizer (default 4; larger prefers
	// smaller regions).
	C float64 `json:"c,omitempty"`
	// MaxRegions caps the number of returned regions (default 16).
	MaxRegions int `json:"max_regions,omitempty"`
	// UseTrueFunction bypasses the surrogate and optimizes against
	// the real dataset evaluator (the paper's f+GlowWorm baseline) —
	// accurate but O(N) per evaluation.
	UseTrueFunction bool `json:"use_true_function,omitempty"`
	// UseKDE enables the data-density selection prior (Eq. 8).
	UseKDE bool `json:"use_kde,omitempty"`
	// KDESample caps the KDE sample size (default 1000, at most
	// 10,000; ignored without UseKDE). The prior is fitted once per
	// data version and shared by every UseKDE query with the same
	// KDESample; a query with another KDESample refits it.
	KDESample int `json:"kde_sample,omitempty"`
	// Glowworms and Iterations override the swarm size and budget
	// (defaults: L = 50·2d worms, T = 100). Each is at most 10,000.
	Glowworms  int `json:"glowworms,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	// MinSideFrac and MaxSideFrac bound region half-sides as
	// fractions of the domain extent (defaults 0.01 and 0.15 — the
	// surrogate's training range). Raising MinSideFrac keeps the
	// size-regularized objective from shrinking regions below the
	// scale the surrogate was trained on.
	MinSideFrac float64 `json:"min_side_frac,omitempty"`
	MaxSideFrac float64 `json:"max_side_frac,omitempty"`
	// Workers parallelizes the swarm's fitness evaluations, neighbour
	// scans and KDE selection weights across this many goroutines:
	// 0 = one per CPU (as training always uses), 1 = sequential. Answers are identical for
	// any value. Weights are computed only for the particles some
	// neighbour roulette can read, those brighter than the dimmest.
	Workers int `json:"workers,omitempty"`
	// SkipVerify leaves regions unverified against the true f
	// (verification costs one data scan per region).
	SkipVerify bool `json:"skip_verify,omitempty"`
	// ClusterExtents reports each swarm cluster's bounding region
	// instead of individual converged particles. With a size
	// regularizer C > 0 particles shrink toward the smallest
	// acceptable boxes while collectively carpeting the interesting
	// region; cluster extents recover the region's full footprint.
	// Recommended for statistics that do not shrink with region size
	// (Mean, Ratio, Min, Max).
	ClusterExtents bool `json:"cluster_extents,omitempty"`
	// Seed makes the run deterministic. It seeds the swarm only (0
	// means the swarm's default seed, 1); the Eq. 8 prior's sample
	// does not depend on it.
	Seed uint64 `json:"seed,omitempty"`
}

// TopKQuery requests the k highest- (or lowest-) statistic regions —
// the complementary formulation to threshold queries discussed in the
// paper's Section VI; use it when k is known and the threshold is not.
type TopKQuery struct {
	// K is the number of regions requested.
	K int `json:"k"`
	// Largest selects the highest-statistic regions; false the
	// lowest.
	Largest bool `json:"largest"`
	// C is the region-size regularizer (default 4).
	C float64 `json:"c,omitempty"`
	// UseTrueFunction bypasses the surrogate (O(N) per evaluation).
	UseTrueFunction bool `json:"use_true_function,omitempty"`
	// Glowworms, Iterations, MinSideFrac, MaxSideFrac, Workers and
	// Seed behave as in Query: Workers 0 = one per CPU (as training
	// always uses), 1 = sequential, answers identical for any value.
	Glowworms   int     `json:"glowworms,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	MinSideFrac float64 `json:"min_side_frac,omitempty"`
	MaxSideFrac float64 `json:"max_side_frac,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	// SkipVerify leaves regions unverified against the true
	// statistic.
	SkipVerify bool   `json:"skip_verify,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
}

// validate rejects queries no run could execute, before any work
// starts. Zero values mean "use the default" throughout the knobs, so
// only negative (or non-finite) settings are errors. It is the single
// validation gate shared by Find, Stream and FindMany.
func (q Query) validate() error {
	if math.IsNaN(q.Threshold) || math.IsInf(q.Threshold, 0) {
		return fmt.Errorf("%w: threshold %g", ErrBadQuery, q.Threshold)
	}
	if q.MaxRegions < 0 {
		return fmt.Errorf("%w: MaxRegions %d", ErrBadQuery, q.MaxRegions)
	}
	if q.KDESample < 0 || q.KDESample > maxSwarm {
		return fmt.Errorf("%w: KDESample %d out of [0, %d]", ErrBadQuery, q.KDESample, maxSwarm)
	}
	return validateTuning(q.C, q.Glowworms, q.Iterations, q.Workers, q.MinSideFrac, q.MaxSideFrac)
}

// validate is the validation gate shared by FindTopK and StreamTopK.
func (q TopKQuery) validate() error {
	if q.K < 1 {
		return fmt.Errorf("%w: K must be >= 1", ErrBadQuery)
	}
	return validateTuning(q.C, q.Glowworms, q.Iterations, q.Workers, q.MinSideFrac, q.MaxSideFrac)
}

// maxSwarm caps Glowworms and Iterations at 20× the paper's largest
// swarm (L = 500, T = 400 in Fig. 10). A swarm's memory grows with L
// and its trace with T, so without a cap one request could allocate
// until the process dies. It caps KDESample too: every Eq. 8 weight
// sums over the whole sample, so an uncapped sample of the full
// dataset could make one request cost CPU-hours.
const maxSwarm = 10000

// validateTuning checks the optimizer knobs Query and TopKQuery
// share. Zero means "default"; negative, non-finite and oversized
// values can never be executed and are rejected up front with
// ErrBadQuery.
func validateTuning(c float64, glowworms, iterations, workers int, minSide, maxSide float64) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case !finite(c) || c < 0:
		return fmt.Errorf("%w: region-size regularizer C %g", ErrBadQuery, c)
	case glowworms < 0 || glowworms > maxSwarm:
		return fmt.Errorf("%w: Glowworms %d out of [0, %d]", ErrBadQuery, glowworms, maxSwarm)
	case iterations < 0 || iterations > maxSwarm:
		return fmt.Errorf("%w: Iterations %d out of [0, %d]", ErrBadQuery, iterations, maxSwarm)
	case workers < 0:
		return fmt.Errorf("%w: Workers %d", ErrBadQuery, workers)
	case !finite(minSide) || minSide < 0 || !finite(maxSide) || maxSide < 0:
		return fmt.Errorf("%w: side fractions [%g, %g]", ErrBadQuery, minSide, maxSide)
	case minSide > 0 && maxSide > 0 && maxSide < minSide:
		return fmt.Errorf("%w: side fractions [%g, %g] inverted", ErrBadQuery, minSide, maxSide)
	}
	return nil
}

// defaultKDESample is the KDE sample size a UseKDE query gets when
// KDESample is zero.
const defaultKDESample = 1000

// resolved validates q and returns it with every zero-means-default
// knob set to the value execution uses: C, MaxRegions, the side
// fractions, Glowworms, Iterations and Seed (through gsoParams), and
// KDESample under UseKDE — zeroed without it, since it then changes
// nothing. Only the swarm reads Seed (the Eq. 8 prior is drawn from
// one fixed stream, see core.FitDensity), so Seed 0 resolves to the
// swarm's default seed and shares its answers. Every query runs the
// resolved form, and the result cache keys on it, so two queries
// share a cache entry exactly when they resolve alike. Workers stays
// raw; cacheKey zeroes it in the key.
func (q Query) resolved(dims int) (Query, error) {
	if err := q.validate(); err != nil {
		return Query{}, err
	}
	g := gsoParams(dims, q.Glowworms, q.Iterations, q.Workers, q.Seed)
	q.Glowworms, q.Iterations, q.Seed = g.Glowworms, g.MaxIters, g.Seed
	q.C = cmp.Or(q.C, core.DefaultC)
	q.MaxRegions = cmp.Or(q.MaxRegions, core.DefaultMaxRegions)
	q.MinSideFrac = cmp.Or(q.MinSideFrac, core.DefaultMinSideFrac)
	q.MaxSideFrac = cmp.Or(q.MaxSideFrac, core.DefaultMaxSideFrac)
	if q.UseKDE {
		q.KDESample = cmp.Or(q.KDESample, defaultKDESample)
	} else {
		q.KDESample = 0
	}
	return q, nil
}

// resolved is Query.resolved for top-k queries.
func (q TopKQuery) resolved(dims int) (TopKQuery, error) {
	if err := q.validate(); err != nil {
		return TopKQuery{}, err
	}
	g := gsoParams(dims, q.Glowworms, q.Iterations, q.Workers, q.Seed)
	q.Glowworms, q.Iterations, q.Seed = g.Glowworms, g.MaxIters, g.Seed
	q.C = cmp.Or(q.C, core.DefaultC)
	q.MinSideFrac = cmp.Or(q.MinSideFrac, core.DefaultMinSideFrac)
	q.MaxSideFrac = cmp.Or(q.MaxSideFrac, core.DefaultMaxSideFrac)
	return q, nil
}

// gsoParams is the single source of optimizer defaulting for Find and
// FindTopK. The effective parameters are identical whether or not any
// override is set: the swarm size is always the paper's L = 50·2d
// (over the 2d-dimensional [x, l] solution space) unless explicitly
// overridden, and Workers 0 means one per CPU (GOMAXPROCS), as
// training always uses; the optimizer caps the count at what the
// swarm can use.
func gsoParams(dims, glowworms, iterations, workers int, seed uint64) gso.Params {
	g := gso.DefaultParams()
	g.Glowworms = 50 * 2 * dims
	if glowworms > 0 {
		g.Glowworms = glowworms
	}
	if iterations > 0 {
		g.MaxIters = iterations
	}
	if seed > 0 {
		g.Seed = seed
	}
	g.Workers = workers
	if workers == 0 {
		g.Workers = runtime.GOMAXPROCS(0)
	}
	return g
}

// finderFor builds the finder a query optimizes over: against the
// snapshot's pinned true evaluator when requested, else against the
// snapshot's surrogate with its compiled batch predictor attached so
// swarm iterations run one model pass per particle shard. Both paths
// read the snapshot's own data view, so a query started before a
// SetDataset swap runs — and verifies — entirely against the data
// version it pinned.
func finderFor(snap *snapshot, useTrue bool) (*core.Finder, error) {
	switch {
	case useTrue:
		return core.NewFinder(core.StatFnFromEvaluator(snap.view.evaluator), snap.view.domain)
	case snap.surr != nil:
		return core.NewSurrogateFinder(snap.surr, snap.view.domain)
	default:
		return nil, ErrNoSurrogate
	}
}

// Find mines interesting regions for the query. Unless
// q.UseTrueFunction is set, a trained surrogate is required.
func (e *Engine) Find(q Query) (*Result, error) {
	return e.FindContext(context.Background(), q)
}

// FindContext is Find with cancellation: the context is checked once
// per swarm iteration (and between the mining and verification
// stages), so a cancelled query returns ctx.Err() within one
// iteration's worth of objective evaluations.
//
// A repeat of a recently answered query under the same surrogate
// snapshot is served from the result cache without re-running the
// swarm (see WithResultCache).
func (e *Engine) FindContext(ctx context.Context, q Query) (*Result, error) {
	q, err := q.resolved(e.Dims())
	if err != nil {
		return nil, err
	}
	snap := e.surrogate.Load()
	key := cacheKey(snap.gen, q)
	res, err := drain(e.cachedRun(key, func() (*Stream, error) {
		return startStream(ctx, e, snap, key, q, false)
	}))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FindTopK mines the k most extreme regions by statistic value.
// Returned regions carry the model's Estimate; unless SkipVerify is
// set, TrueValue is filled from the dataset (Satisfies is not
// meaningful for top-k queries and stays false).
func (e *Engine) FindTopK(q TopKQuery) (*Result, error) {
	return e.FindTopKContext(context.Background(), q)
}

// FindTopKContext is FindTopK with cancellation, checked once per
// swarm iteration and between mining and verification, and with the
// same result cache as FindContext.
func (e *Engine) FindTopKContext(ctx context.Context, q TopKQuery) (*Result, error) {
	q, err := q.resolved(e.Dims())
	if err != nil {
		return nil, err
	}
	snap := e.surrogate.Load()
	key := cacheKey(snap.gen, q)
	res, err := drain(e.cachedRun(key, func() (*Stream, error) {
		return startTopKStream(ctx, e, snap, key, q, false)
	}))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cachedRun is the one result-cache lookup, shared by all five entry
// points: Find, FindTopK, FindMany, Stream and StreamTopK. On a hit it
// returns a finished stream whose only event is EventDone carrying a
// private copy of the cached Result (see doneStream); on a miss it
// returns the stream start launches, whose run offers its Result to
// the cache when it succeeds (see newStream and resultCache.put). The batch entry points drain what it
// returns and the streaming ones hand it to their caller, so a fully
// drained stream and a batch call produce identical Results; batch
// runs skip the per-iteration telemetry and incumbent sweeps (nobody
// consumes them), which are passive either way.
func (e *Engine) cachedRun(key resultKey, start func() (*Stream, error)) (*Stream, error) {
	if res, ok := e.cache.get(key); ok {
		return doneStream(res), nil
	}
	return start()
}

// drain returns a started stream's final Result, or the error that
// kept it from starting. On a failed run it returns the stream's
// partial result with the error.
func drain(s *Stream, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return s.Result()
}

// startStream does everything that can fail synchronously for a
// resolved query — finder construction, KDE fitting — before spawning
// the mining goroutine, so Stream reports ErrNoSurrogate and kin as
// plain return values rather than burying them in the event stream.
// With events false the run emits only the terminal EventDone — the
// batch fast path. key is the query's result-cache key; every run,
// streamed or batch, puts its Result there when it succeeds. Callers
// reach startStream only through cachedRun, after a cache miss.
func startStream(ctx context.Context, e *Engine, snap *snapshot, key resultKey, q Query, events bool) (*Stream, error) {
	finder, err := finderFor(snap, q.UseTrueFunction)
	if err != nil {
		return nil, err
	}
	view := snap.view
	if q.UseKDE {
		prior, err := view.density(e.spec.FilterCols, q.KDESample)
		if err != nil {
			return nil, err
		}
		if err := finder.AttachPrior(prior); err != nil {
			return nil, err
		}
	}
	return newStream(ctx, e.cache, key, func(ctx context.Context, emit func(Event) bool) (*Result, error) {
		return runQuery(ctx, e, view, finder, q, emit, events)
	}), nil
}

// startTopKStream is startStream for resolved top-k queries.
func startTopKStream(ctx context.Context, e *Engine, snap *snapshot, key resultKey, q TopKQuery, events bool) (*Stream, error) {
	finder, err := finderFor(snap, q.UseTrueFunction)
	if err != nil {
		return nil, err
	}
	view := snap.view
	return newStream(ctx, e.cache, key, func(ctx context.Context, emit func(Event) bool) (*Result, error) {
		return runTopK(ctx, e, view, finder, q, emit, events)
	}), nil
}

// regionFromCore deep-copies a mined region into the public form.
func regionFromCore(r core.Region) Region {
	return Region{
		Min:       append([]float64(nil), r.Rect.Min...),
		Max:       append([]float64(nil), r.Rect.Max...),
		Estimate:  r.Estimate,
		Score:     r.Score,
		Worms:     r.Worms,
		TrueValue: r.TrueValue,
		Verified:  r.Verified,
		Satisfies: r.SatisfiesTrue,
	}
}

// resultFromCore converts a mining outcome to the public form. Top-k
// answers pass validFrac 0 and compliance NaN.
func resultFromCore(res *core.FindResult, validFrac, compliance float64) *Result {
	out := &Result{
		ValidParticleFraction: validFrac,
		ComplianceRate:        compliance,
		ElapsedSeconds:        res.Elapsed.Seconds(),
	}
	for _, r := range res.Regions {
		out.Regions = append(out.Regions, regionFromCore(r))
	}
	return out
}

// iterationEvents adapts the swarm's per-iteration telemetry to
// EventIteration deliveries through emit.
func iterationEvents(emit func(Event) bool) func(gso.IterStats) {
	return func(it gso.IterStats) {
		emit(EventIteration{
			Iteration:             it.Iteration,
			MeanFitness:           it.MeanFitness,
			MeanLuciferin:         it.MeanLuciferin,
			ValidParticleFraction: it.ValidFrac,
			Moved:                 it.Moved,
		})
	}
}

// runQuery is the single execution path of threshold queries: swarm
// mining with progressive event delivery, optional cluster-extent
// reporting, then verification. With events false the mining runs
// callback-free (no telemetry, no incumbent sweeps) — the events are
// passive, so the Result is bit-identical either way.
func runQuery(ctx context.Context, e *Engine, view *dataView, finder *core.Finder, q Query, emit func(Event) bool, events bool) (*Result, error) {
	dir := core.Below
	if q.Above {
		dir = core.Above
	}
	cfg := core.FinderConfig{
		Threshold:   q.Threshold,
		Dir:         dir,
		C:           q.C,
		MaxRegions:  q.MaxRegions,
		UseKDE:      q.UseKDE,
		MinSideFrac: q.MinSideFrac,
		MaxSideFrac: q.MaxSideFrac,
		GSO:         gsoParams(e.Dims(), q.Glowworms, q.Iterations, q.Workers, q.Seed),
	}
	if events {
		// Callbacks run synchronously on the mining goroutine, so
		// curIter needs no synchronization: OnRegion always fires
		// after the same iteration's OnIteration.
		curIter := 0
		onIter := iterationEvents(emit)
		cfg.OnIteration = func(it gso.IterStats) {
			curIter = it.Iteration
			onIter(it)
		}
		cfg.OnRegion = func(r core.Region) {
			emit(EventRegion{Region: regionFromCore(r), Iteration: curIter})
		}
	}
	find := finder.FindContext
	if q.ClusterExtents {
		find = finder.FindExtentsContext
	}
	res, err := find(ctx, cfg)
	if err != nil {
		return nil, err
	}
	compliance := math.NaN()
	if !q.SkipVerify {
		objCfg := core.ObjectiveConfig{YR: q.Threshold, Dir: dir, C: q.C}
		compliance, err = core.VerifyContext(ctx, res.Regions, core.StatFnFromEvaluator(view.evaluator), objCfg)
		if err != nil {
			return nil, err
		}
	}
	return resultFromCore(res, res.ValidFrac, compliance), nil
}

// runTopK is the single execution path of top-k queries: swarm mining,
// then, unless skipped, the true statistic of each region. Top-k has
// no constraint to satisfy, so its answers carry Satisfies false and
// a NaN compliance rate.
func runTopK(ctx context.Context, e *Engine, view *dataView, finder *core.Finder, q TopKQuery, emit func(Event) bool, events bool) (*Result, error) {
	cfg := core.TopKConfig{
		K:           q.K,
		Largest:     q.Largest,
		C:           q.C,
		MinSideFrac: q.MinSideFrac,
		MaxSideFrac: q.MaxSideFrac,
		GSO:         gsoParams(e.Dims(), q.Glowworms, q.Iterations, q.Workers, q.Seed),
	}
	if events {
		cfg.OnIteration = iterationEvents(emit)
	}
	res, err := finder.FindTopKContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if !q.SkipVerify {
		if err := core.MeasureTrue(ctx, res.Regions, core.StatFnFromEvaluator(view.evaluator)); err != nil {
			return nil, err
		}
	}
	return resultFromCore(res, 0, math.NaN()), nil
}
