package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"surf/internal/gbt/kernel"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/kde"
)

// Region is one mined interesting region.
type Region struct {
	// Rect is the region in data space, clipped to the domain.
	Rect geom.Rect
	// Score is the objective value at the representative particle.
	Score float64
	// Estimate is the statistic the finder's predictor predicted.
	Estimate float64
	// Worms is the number of converged particles merged into this
	// region — a rough confidence signal.
	Worms int
	// TrueValue and Verified are filled by MeasureTrue, SatisfiesTrue
	// by Verify. Nothing fills Support yet.
	TrueValue     float64
	Support       int
	Verified      bool
	SatisfiesTrue bool
}

// FindResult is the output of one mining run.
type FindResult struct {
	// Regions are the deduplicated interesting regions, best first.
	Regions []Region
	// Swarm is the raw optimizer outcome (positions, trace, …).
	Swarm *gso.Result
	// ValidFrac is the fraction of particles that ended on valid
	// (constraint-satisfying) positions — Fig. 1 reports 84%.
	ValidFrac float64
	// Elapsed is the wall-clock mining time.
	Elapsed time.Duration
}

// FinderConfig configures a mining run.
type FinderConfig struct {
	// Threshold is the analyst's yR.
	Threshold float64
	// Dir selects Above (f > yR) or Below.
	Dir Direction
	// C is the size regularizer (paper default 4).
	C float64
	// GSO overrides the optimizer parameters. SwarmParams fills each
	// zero field on its own: Glowworms=0 applies the paper's
	// L = 50·2d rule, MaxIters=0 and Seed=0 gso.DefaultParams' T = 100
	// and seed 1; InitRadius=0 applies the r0 heuristic of Section
	// V-G, and every other field is kept as given.
	GSO gso.Params
	// UseKDE enables the Eq. 8 selection prior (requires a prior
	// attached with AttachPrior).
	UseKDE bool
	// MinSideFrac/MaxSideFrac bound region half-sides as fractions of
	// the domain extent (defaults 0.01 and 0.15, the training
	// workload's range).
	MinSideFrac float64
	MaxSideFrac float64
	// MaxRegions caps the number of returned regions (default 16).
	MaxRegions int
	// OnIteration, when non-nil, receives every swarm iteration's
	// telemetry as it completes — the streaming form of the paper's
	// Fig. 9 E[J] curves. Called synchronously on the mining
	// goroutine; it must not block.
	OnIteration func(gso.IterStats)
	// OnRegion, when non-nil, receives incumbent regions as their
	// swarm clusters stabilize: every emitEvery iterations the live
	// swarm is reduced to candidate regions (the same greedy IoU
	// clustering as the final extraction) and a candidate persisting
	// for stableChecks consecutive sweeps is delivered once. The
	// final FindResult re-extracts from the converged swarm and
	// remains authoritative. Called synchronously on the mining
	// goroutine.
	OnRegion func(Region)
}

const (
	// ExtentClusterEps is the swarm-cluster linkage threshold, as a
	// fraction of the domain extent, of threshold queries that report
	// cluster extents (see ClusterExtents).
	ExtentClusterEps = 0.08
	// topKClusterEps is the linkage threshold of top-k extraction.
	topKClusterEps = 0.05
	// dedupeIoU merges converged particles whose boxes overlap at
	// least this much.
	dedupeIoU = 0.3
	// emitEvery is the sweep period, in iterations, for OnRegion.
	emitEvery = 10
	// stableChecks is how many consecutive sweeps a candidate region
	// must survive before OnRegion delivers it.
	stableChecks = 2
)

// Default query-knob values, exported so the public layer resolves
// each query's zero knobs to the same values withDefaults applies for
// the callers that pass zero knobs to core directly. SwarmParams does
// the same for the swarm's parameters.
const (
	// DefaultC is the region-size regularizer default.
	DefaultC = 4
	// DefaultMinSideFrac / DefaultMaxSideFrac bound region half-sides
	// as fractions of the domain extent (the surrogate training
	// range).
	DefaultMinSideFrac = 0.01
	DefaultMaxSideFrac = 0.15
	// DefaultMaxRegions caps reported regions.
	DefaultMaxRegions = 16
)

// SwarmParams is the one swarm-parameter defaulting for runs over dims
// filter dimensions. It fills each zero field on its own: Glowworms
// becomes the paper's L = 50·(region dims), where the [x, l] solution
// space has 2d dimensions, and MaxIters and Seed take
// gso.DefaultParams' values. Every other field is kept as given.
func SwarmParams(dims int, g gso.Params) gso.Params {
	def := gso.DefaultParams()
	def.Glowworms = 50 * 2 * dims
	g.Glowworms = cmp.Or(g.Glowworms, def.Glowworms)
	g.MaxIters = cmp.Or(g.MaxIters, def.MaxIters)
	g.Seed = cmp.Or(g.Seed, def.Seed)
	return g
}

// withDefaults fills unset fields.
func (c FinderConfig) withDefaults(dims int) FinderConfig {
	if c.C == 0 {
		c.C = DefaultC
	}
	c.GSO = SwarmParams(dims, c.GSO)
	if c.MinSideFrac == 0 {
		c.MinSideFrac = DefaultMinSideFrac
	}
	if c.MaxSideFrac == 0 {
		c.MaxSideFrac = DefaultMaxSideFrac
	}
	if c.MaxRegions == 0 {
		c.MaxRegions = DefaultMaxRegions
	}
	return c
}

// Finder mines interesting regions from a statistic predictor over a
// domain. The statistic may be a surrogate (SuRF proper) or the true f
// (the paper's f+GlowWorm baseline).
type Finder struct {
	pred    BatchPredictor
	domain  geom.Rect
	density *kde.KDE
}

// NewFinder builds a finder that predicts through stat, one region at
// a time. The domain is the data-space bounding box regions must stay
// inside.
func NewFinder(stat StatFn, domain geom.Rect) (*Finder, error) {
	if stat == nil {
		return nil, errors.New("core: nil statistic function")
	}
	return newFinder(statPredictor(stat), domain)
}

func newFinder(pred BatchPredictor, domain geom.Rect) (*Finder, error) {
	if domain.Dims() == 0 {
		return nil, errors.New("core: empty domain")
	}
	return &Finder{pred: pred, domain: domain}, nil
}

// NewSurrogateFinder builds a finder that predicts through the
// surrogate's compiled kernel, so the swarm evaluates whole particle
// shards per model pass, and threshold finds' swarms through its
// bounded walk (see sidePredictor). The swarm's positions are always
// well-formed [x, l] rows, so the kernel is used directly — the
// surrogate's validating PredictBatch boundary is for caller-supplied
// batches.
func NewSurrogateFinder(s *Surrogate, domain geom.Rect) (*Finder, error) {
	if s == nil {
		return nil, errors.New("core: nil surrogate")
	}
	return newFinder(s.Kernel(), domain)
}

// AttachBatch replaces the finder's predictor with p, which must be
// non-nil and predict the statistic the finder was built with bit for
// bit: mined regions, scores and estimates are then identical, and
// only the prediction cost changes. Unless p is itself a compiled
// kernel, threshold finds' swarms then walk every tree too.
func (f *Finder) AttachBatch(p BatchPredictor) { f.pred = p }

// estimates predicts the statistic of each [x, l] row.
func (f *Finder) estimates(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	f.pred.PredictBatch(rows, out)
	return out
}

// FitDensity fits the Eq. 8 KDE prior over column-major data
// (cols[j][i] is coordinate j of row i, e.g. a dataset's filter
// columns as stored). maxSample caps the KDE's retained points. The
// prior is the density of the data and nothing in it depends on a
// query, so its sample is always drawn from one fixed stream (see
// densityOptions): the same data and cap give the same prior, which
// callers may fit once and share through AttachPrior. Only the
// sampled rows are copied, so fitting costs an O(N) shuffle of 4-byte
// row indices rather than a row copy per data point.
func FitDensity(cols [][]float64, maxSample int) (*kde.KDE, error) {
	return kde.FitColumns(cols, densityOptions(maxSample))
}

// AttachDensity fits the prior FitDensity fits over the same data laid
// out by row (rows in domain space) and attaches it. seed is unused:
// it is kept only for cmd/surf-perf's replica, which calls this with a
// per-query seed, and goes with it.
func (f *Finder) AttachDensity(points [][]float64, maxSample int, seed uint64) error {
	k, err := kde.Fit(points, densityOptions(maxSample))
	if err != nil {
		return err
	}
	return f.AttachPrior(k)
}

// densityStream1 and densityStream2 seed the one PCG stream every
// prior's sample is drawn from. They are fixed, not tuned: any pair
// draws a uniform sample.
const densityStream1, densityStream2 = 1, 0xaef17502108ef2d9

// densityOptions is the fit configuration FitDensity and AttachDensity
// share: the sample cap and a fresh copy of the fixed sampling stream.
func densityOptions(maxSample int) kde.Options {
	return kde.Options{MaxSample: maxSample, Rng: rand.New(rand.NewPCG(densityStream1, densityStream2))}
}

// AttachPrior installs an already fitted Eq. 8 prior (see FitDensity)
// after checking it matches the finder's domain. The finder only reads
// it, so one prior may serve any number of finders at once.
func (f *Finder) AttachPrior(k *kde.KDE) error {
	if k.Dims() != f.domain.Dims() {
		return fmt.Errorf("core: density of dimension %d for domain of dimension %d", k.Dims(), f.domain.Dims())
	}
	f.density = k
	return nil
}

// Density exposes the attached KDE (nil when absent).
func (f *Finder) Density() *kde.KDE { return f.density }

// Find runs the SuRF pipeline: build the objective, run GSO over the
// [x, l] solution space, then extract, deduplicate and rank the
// converged regions.
func (f *Finder) Find(cfg FinderConfig) (*FindResult, error) {
	return f.FindContext(context.Background(), cfg)
}

// FindContext is Find with cancellation: the context is propagated to
// the optimizer, which checks it once per swarm iteration.
func (f *Finder) FindContext(ctx context.Context, cfg FinderConfig) (*FindResult, error) {
	return f.mine(ctx, cfg, f.thresholdObjective, f.extractRegions)
}

// FindExtentsContext is FindContext reporting the swarm's cluster
// extents instead of its greedy regions: ClusterExtents with linkage
// ExtentClusterEps, capped at cfg.MaxRegions. After the swarm the
// statistic is evaluated once per returned extent.
func (f *Finder) FindExtentsContext(ctx context.Context, cfg FinderConfig) (*FindResult, error) {
	return f.mine(ctx, cfg, f.thresholdObjective, func(res *gso.Result, _ gso.Objective, cfg FinderConfig) []Region {
		return f.ClusterExtents(res, ExtentClusterEps, cfg.MaxRegions)
	})
}

// thresholdObjective is the threshold query's objective: the Eq. 4
// score (scoreRegion) over the defaulted configuration, predicted
// through the bounded walk when the finder predicts through a
// compiled kernel.
func (f *Finder) thresholdObjective(cfg FinderConfig) (regionObjective, error) {
	ocfg := ObjectiveConfig{YR: cfg.Threshold, Dir: cfg.Dir, C: cfg.C}
	obj := regionObjective{pred: f.pred, score: ocfg.scoreRegion}
	if k, ok := f.pred.(*kernel.Model); ok {
		obj.pred = sidePredictor{kern: k, yR: cfg.Threshold, below: cfg.Dir == Below}
	}
	return obj, ocfg.Validate()
}

// sidePredictor predicts a threshold find's swarm through the kernel's
// bounded walk: a row the walk proves to lie on the invalid side of yR
// reads ∓Inf instead of its estimate, which scoreRegion scores (0,
// false) exactly as it scores the estimate, so the swarm is the one
// the full walk gives. Region estimates still use the full walk.
type sidePredictor struct {
	kern  *kernel.Model
	yR    float64
	below bool
}

// PredictBatch runs the bounded walk.
func (p sidePredictor) PredictBatch(rows [][]float64, out []float64) {
	p.kern.PredictSide(rows, out, p.yR, p.below)
}

// mine is the one swarm runner of both query kinds: it defaults and
// checks cfg, runs GSO over the [x, l] space on the kind's objective,
// with cfg's observers and KDE prior, and lets the kind extract
// regions.
func (f *Finder) mine(ctx context.Context, cfg FinderConfig,
	objFor func(FinderConfig) (regionObjective, error),
	extract func(*gso.Result, gso.Objective, FinderConfig) []Region) (*FindResult, error) {
	cfg = cfg.withDefaults(f.domain.Dims())
	obj, err := objFor(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.MinSideFrac <= 0 || cfg.MaxSideFrac < cfg.MinSideFrac {
		return nil, fmt.Errorf("core: side fractions [%g, %g] invalid", cfg.MinSideFrac, cfg.MaxSideFrac)
	}
	space := geom.SolutionSpace(f.domain, cfg.MinSideFrac, cfg.MaxSideFrac)

	// Constraint-violating worms with no neighbours random-walk
	// instead of freezing, so a swarm that starts entirely outside a
	// narrow valid basin can still find it (see gso.Options).
	opts := gso.Options{InvalidWalk: 1}
	if cfg.OnIteration != nil || cfg.OnRegion != nil {
		var tracker *incumbentTracker
		if cfg.OnRegion != nil {
			tracker = &incumbentTracker{finder: f, cfg: cfg, emit: cfg.OnRegion}
		}
		onIter := cfg.OnIteration
		opts.Observer = func(it gso.IterStats, view gso.SwarmView) {
			if onIter != nil {
				onIter(it)
			}
			if tracker != nil && (it.Iteration+1)%emitEvery == 0 {
				tracker.sweep(view)
			}
		}
	}
	if cfg.UseKDE {
		if f.density == nil {
			return nil, errors.New("core: UseKDE set but no density attached (call AttachPrior)")
		}
		density := f.density
		opts.Weight = func(vec []float64) float64 {
			x, l := geom.DecodeRegion(vec)
			return density.BoxMass(geom.FromCenter(x, l))
		}
	}

	start := time.Now()
	res, err := gso.RunContext(ctx, cfg.GSO, space, obj, opts)
	if err != nil {
		return nil, err
	}
	regions := extract(res, obj, cfg)
	valid := 0
	for _, ok := range res.Valid {
		if ok {
			valid++
		}
	}
	return &FindResult{
		Regions:   regions,
		Swarm:     res,
		ValidFrac: float64(valid) / float64(len(res.Valid)),
		Elapsed:   time.Since(start),
	}, nil
}

// swarmCand is one particle proposed as a region candidate.
type swarmCand struct {
	vec []float64
	fit float64
}

// clusteredCand is a deduplicated candidate region: the best particle
// of a greedy IoU cluster plus how many particles merged into it.
type clusteredCand struct {
	rect  geom.Rect
	vec   []float64
	score float64
	worms int
}

// greedyCluster reduces particle candidates to deduplicated regions:
// candidates are sorted by fitness and, best first, a candidate whose
// box overlaps an accepted region with IoU >= dedupeIoU merges into
// it (counting toward its worms); the accepted list caps at
// maxRegions. Shared by the final extraction and the incumbent
// sweeps of the streaming path so the two can never diverge. The
// cands slice is reordered in place.
func greedyCluster(cands []swarmCand, domain geom.Rect, maxRegions int) []clusteredCand {
	sort.Slice(cands, func(i, j int) bool { return cands[i].fit > cands[j].fit })
	var out []clusteredCand
	for _, c := range cands {
		rect := geom.RectFromVector(c.vec).Clip(domain)
		merged := false
		for ri := range out {
			if out[ri].rect.IoU(rect) >= dedupeIoU {
				out[ri].worms++
				merged = true
				break
			}
		}
		if merged || len(out) >= maxRegions {
			continue
		}
		out = append(out, clusteredCand{rect: rect, vec: c.vec, score: c.fit, worms: 1})
	}
	return out
}

// extractRegions converts converged valid particles into deduplicated
// regions: particles are sorted by fitness and greedily clustered by
// box overlap; each cluster's best particle becomes the
// representative. Particles moved after their last evaluation, so
// they are re-scored in one pass, and the representatives' estimates
// predicted in another.
func (f *Finder) extractRegions(res *gso.Result, obj gso.Objective, cfg FinderConfig) []Region {
	var live [][]float64
	for i, pos := range res.Positions {
		if res.Valid[i] {
			live = append(live, pos)
		}
	}
	fit := make([]float64, len(live))
	ok := make([]bool, len(live))
	obj.Evaluate(live, fit, ok)
	var cands []swarmCand
	for i, pos := range live {
		if ok[i] && !math.IsNaN(fit[i]) {
			cands = append(cands, swarmCand{vec: pos, fit: fit[i]})
		}
	}
	clustered := greedyCluster(cands, f.domain, cfg.MaxRegions)
	rows := make([][]float64, len(clustered))
	for i, c := range clustered {
		rows[i] = c.vec
	}
	var regions []Region
	for i, y := range f.estimates(rows) {
		c := clustered[i]
		regions = append(regions, Region{Rect: c.rect, Score: c.score, Estimate: y, Worms: c.worms})
	}
	return regions
}

// ClusterExtents reports the swarm's cluster extents (ClusterRegions
// with linkage threshold eps) as regions: the first limit clusters,
// largest first (all of them when limit is 0), each carrying the
// finder's predicted statistic over its extent as Estimate and Worms
// 1. The statistic is predicted only for the clusters returned, in
// one pass.
func (f *Finder) ClusterExtents(swarm *gso.Result, eps float64, limit int) []Region {
	clusters := ClusterRegions(swarm, f.domain, eps)
	if limit > 0 && len(clusters) > limit {
		clusters = clusters[:limit]
	}
	rows := make([][]float64, len(clusters))
	for i, rect := range clusters {
		rows[i] = geom.EncodeRegion(rect.Center(), rect.HalfSides())
	}
	regions := make([]Region, 0, len(clusters))
	for i, y := range f.estimates(rows) {
		regions = append(regions, Region{Rect: clusters[i], Estimate: y, Worms: 1})
	}
	return regions
}

// ClusterRegions summarizes a converged swarm by grouping the valid
// particles with single-linkage clustering on their region centers
// (linkage threshold eps, in fractions of the domain extent) and
// returning each cluster's bounding region — the union extent of the
// member boxes.
//
// This reconstructs the spatial extent of each optimum basin from the
// swarm: under the size-regularized objective (Eq. 4 with c > 0)
// individual particles shrink toward the smallest acceptable boxes,
// but collectively they carpet the whole interesting region (visible
// in the paper's Fig. 1, where the converged particles line the
// bottom of each peak). Clusters are returned largest-first, clusters
// of equal volume in the order of their first valid particle.
func ClusterRegions(swarm *gso.Result, domain geom.Rect, eps float64) []geom.Rect {
	if eps <= 0 {
		eps = 0.05
	}
	d := domain.Dims()
	var centers [][]float64
	var rects []geom.Rect
	for i, pos := range swarm.Positions {
		if !swarm.Valid[i] {
			continue
		}
		x, l := geom.DecodeRegion(pos)
		centers = append(centers, x)
		rects = append(rects, geom.FromCenter(x, l).Clip(domain))
	}
	if len(rects) == 0 {
		return nil
	}
	// Normalized center distance threshold.
	scale := make([]float64, d)
	for j := 0; j < d; j++ {
		extent := domain.Max[j] - domain.Min[j]
		if extent <= 0 {
			extent = 1
		}
		scale[j] = 1 / extent
	}
	near := func(a, b []float64) bool {
		var sum float64
		for j := 0; j < d; j++ {
			dd := (a[j] - b[j]) * scale[j]
			sum += dd * dd
		}
		return math.Sqrt(sum) <= eps
	}
	// Single-linkage via union-find.
	parent := make([]int, len(rects))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			if near(centers[i], centers[j]) {
				parent[find(i)] = find(j)
			}
		}
	}
	// Clusters are laid out in the order of their first member and
	// sorted stably, so clusters of equal volume keep that order.
	var out []geom.Rect
	slot := make([]int, len(rects)) // root → 1 + its cluster's index in out
	for i, r := range rects {
		root := find(i)
		if slot[root] == 0 {
			out = append(out, r.Clone())
			slot[root] = len(out)
			continue
		}
		box := out[slot[root]-1]
		for j := 0; j < d; j++ {
			box.Min[j] = math.Min(box.Min[j], r.Min[j])
			box.Max[j] = math.Max(box.Max[j], r.Max[j])
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Volume() > out[j].Volume() })
	return out
}

// Verify re-evaluates mined regions against the true statistic
// function (e.g. a dataset evaluator) and records whether each region
// truly satisfies the constraint — the paper's Fig. 5 check where 100%
// of proposed regions complied with f(x, l) > yR. It returns the
// compliant fraction.
func Verify(regions []Region, trueFn StatFn, cfg ObjectiveConfig) (float64, error) {
	return VerifyContext(context.Background(), regions, trueFn, cfg)
}

// VerifyContext is Verify with cancellation, checked before each
// region's (potentially O(N)) true-function evaluation.
func VerifyContext(ctx context.Context, regions []Region, trueFn StatFn, cfg ObjectiveConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if err := MeasureTrue(ctx, regions, trueFn); err != nil {
		return 0, err
	}
	if len(regions) == 0 {
		return 0, nil
	}
	ok := 0
	for i := range regions {
		r := &regions[i]
		r.SatisfiesTrue = cfg.Satisfies(r.TrueValue)
		if r.SatisfiesTrue {
			ok++
		}
	}
	return float64(ok) / float64(len(regions)), nil
}

// MeasureTrue is the verification step both query kinds share: it
// evaluates the true statistic function on each region, filling
// TrueValue and Verified, and checks ctx before each (potentially
// O(N)) evaluation.
func MeasureTrue(ctx context.Context, regions []Region, trueFn StatFn) error {
	if trueFn == nil {
		return errors.New("core: nil true statistic function")
	}
	for i := range regions {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := &regions[i]
		r.TrueValue = trueFn(r.Rect.Center(), r.Rect.HalfSides())
		r.Verified = true
	}
	return nil
}
