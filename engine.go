package surf

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/kde"
)

// Dataset is an immutable, in-memory columnar dataset.
type Dataset struct {
	inner *dataset.Dataset
}

// NewDataset builds a dataset from named float columns (ownership of
// the column slices passes to the dataset).
func NewDataset(names []string, cols [][]float64) (*Dataset, error) {
	d, err := dataset.New(names, cols)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: d}, nil
}

// ReadCSVDataset reads a numeric CSV with a header row.
func ReadCSVDataset(r io.Reader) (*Dataset, error) {
	d, err := dataset.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: d}, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return d.inner.Len() }

// Names returns the column names.
func (d *Dataset) Names() []string { return d.inner.Names() }

// Column returns a copy of the named column (nil if absent).
func (d *Dataset) Column(name string) []float64 {
	i := d.inner.ColByName(name)
	if i < 0 {
		return nil
	}
	return append([]float64(nil), d.inner.Col(i)...)
}

// WriteCSV writes the dataset as CSV with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error { return d.inner.WriteCSV(w) }

// Config describes what a region query computes over a dataset.
type Config struct {
	// FilterColumns are the columns the hyper-rectangles constrain,
	// in region-dimension order.
	FilterColumns []string
	// Statistic is the aggregate extracted from each region.
	Statistic Statistic
	// TargetColumn is the aggregated column (ignored for Count). Per
	// the paper's Definition 2 it must not also be a filter column.
	TargetColumn string
	// UseGridIndex builds a uniform grid index for true-function
	// evaluations instead of linear scans. Recommended for repeated
	// evaluation on low-dimensional data.
	UseGridIndex bool
}

// Engine couples a dataset with a region-query spec, a true-function
// evaluator, a (lazy) surrogate model, and the mining pipeline.
//
// An Engine is safe for concurrent use: queries operate on an atomic
// snapshot of the surrogate, so TrainSurrogate, TrainSurrogateContext
// and LoadSurrogate may swap the model while Find calls are running.
// A query that starts before a swap completes finishes against the
// model it started with. Each snapshot carries a compiled flat-array
// form of its ensemble, rebuilt on every train/load and swapped
// atomically with it, which Find, FindTopK and PredictStatisticBatch
// use to evaluate whole probe batches per model pass.
type Engine struct {
	spec  dataset.Spec
	names []string // column names, the fixed schema across data versions
	// useGrid selects the evaluator newView builds for every data
	// version: a grid index, else a linear scan.
	useGrid bool
	// surrogate holds the engine's current snapshot — always non-nil:
	// Open publishes a model-free snapshot carrying the v1 data view,
	// and every later swap (train, load, SetDataset) replaces it whole.
	surrogate atomic.Pointer[snapshot]
	snapGen   atomic.Uint64
	// snapMu serializes snapshot writers (train, load, SetDataset) so
	// a data swap can never lose a concurrent model swap or vice
	// versa. The read path never touches it: queries pin the snapshot
	// with one atomic load.
	snapMu sync.Mutex
	cache  *resultCache
}

// dataView pins one immutable dataset version together with the
// evaluator and domain derived from it. Views ride inside snapshots,
// so every query reads its statistic from exactly the data version
// the snapshot was published with — a concurrent append (SetDataset)
// swaps in a new view without disturbing in-flight readers.
type dataView struct {
	data      *dataset.Dataset
	evaluator dataset.Evaluator
	domain    geom.Rect
	version   uint64
	// prior is the view's one Eq. 8 density prior slot, behind a
	// pointer so the view stays safe to copy.
	prior *priorSlot
}

// newView pins data as data version version, the one way Open and
// SetDataset build a view: the engine's evaluator kind (grid index or
// linear scan) over data, the domain of its filter columns and an
// empty prior slot.
func (e *Engine) newView(data *dataset.Dataset, version uint64) (*dataView, error) {
	var ev dataset.Evaluator
	var err error
	if e.useGrid {
		ev, err = dataset.NewGridIndex(data, e.spec, 0)
	} else {
		ev, err = dataset.NewLinearScan(data, e.spec)
	}
	if err != nil {
		return nil, err
	}
	return &dataView{data: data, evaluator: ev, domain: data.Domain(e.spec.FilterCols), version: version, prior: new(priorSlot)}, nil
}

// priorSlot holds at most one fitted Eq. 8 prior for a data view: the
// prior is the density of the data, so every UseKDE query on the view
// with the same KDESample shares it. It is fitted on the first such
// query, not when the view is made, and a query with another
// KDESample refits it and replaces it, so a view never holds more
// than one prior.
type priorSlot struct {
	mu     sync.Mutex
	sample int      // the KDESample density was fitted with
	kde    *kde.KDE // nil until the first UseKDE query
}

// density returns the view's prior over its filter columns cols with a
// sample of up to sample rows, fitting it under the slot's mutex when
// the slot is empty or holds another sample size, so concurrent first
// queries fit it once.
func (v *dataView) density(cols []int, sample int) (*kde.KDE, error) {
	p := v.prior
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.kde == nil || p.sample != sample {
		data := make([][]float64, len(cols))
		for j, c := range cols {
			data[j] = v.data.Col(c)
		}
		k, err := core.FitDensity(data, sample)
		if err != nil {
			return nil, err
		}
		p.kde, p.sample = k, sample
	}
	return p.kde, nil
}

// snapshot pairs a surrogate (possibly nil before any training) with
// the pinned data view it serves over, the metadata describing how
// the model was produced, and a generation number unique within its
// engine. The engine swaps whole snapshots atomically, so a query
// pinning one sees a model, a data version and provenance that can
// never disagree; result-cache keys embed the generation,
// which — unlike a pointer — can never be reused after the snapshot
// is garbage collected, and which bumps on data swaps exactly as on
// model swaps, invalidating cached results either way.
type snapshot struct {
	surr *core.Surrogate
	view *dataView
	info SurrogateInfo
	gen  uint64
}

// swapSnapshot is the single snapshot-replacement path (train, CV
// train, artifact loads, SetDataset). Under the writer mutex it reads
// the current snapshot, lets mut derive the next one from it, inherits
// the current data view when mut supplies none (a model swap keeps
// serving the data it trained against until the next data swap),
// stamps the provenance with the view's data version, assigns a fresh
// generation, and atomically swaps the snapshot in.
// The cache is reset to the new generation first — entries under
// older generations could never be served anyway (keys embed the
// generation), dropping them just stops them crowding out live
// entries, and runs still finishing on an older snapshot can no
// longer insert — so no moment exists where the new snapshot is
// visible alongside results that predate it, whether the swap changed
// the model, the data, or both.
func (e *Engine) swapSnapshot(mut func(cur *snapshot) *snapshot) {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	cur := e.surrogate.Load()
	sn := mut(cur)
	if sn.view == nil {
		sn.view = cur.view
	}
	if sn.surr != nil {
		sn.info.DataVersion = sn.view.version
	}
	sn.gen = e.snapGen.Add(1)
	e.cache.reset(sn.gen)
	e.surrogate.Store(sn)
}

// Open validates the config against the dataset and returns an engine.
// Options customize the engine beyond the Config: WithResultCache
// sizes the query-result cache.
func Open(ds *Dataset, cfg Config, opts ...Option) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadConfig)
	}
	kind, ok := cfg.Statistic.kind()
	if !ok {
		return nil, fmt.Errorf("%w: unknown statistic %d", ErrBadConfig, int(cfg.Statistic))
	}
	if len(cfg.FilterColumns) == 0 {
		return nil, fmt.Errorf("%w: no filter columns", ErrBadConfig)
	}
	eo := engineOptions{cacheSize: defaultCacheSize}
	for _, opt := range opts {
		opt(&eo)
	}
	spec := dataset.Spec{Stat: kind}
	for _, name := range cfg.FilterColumns {
		i := ds.inner.ColByName(name)
		if i < 0 {
			return nil, fmt.Errorf("%w: filter column %q", ErrUnknownColumn, name)
		}
		spec.FilterCols = append(spec.FilterCols, i)
	}
	if spec.Stat.NeedsTarget() {
		i := ds.inner.ColByName(cfg.TargetColumn)
		if i < 0 {
			return nil, fmt.Errorf("%w: target column %q", ErrUnknownColumn, cfg.TargetColumn)
		}
		spec.TargetCol = i
	}
	if err := spec.Validate(ds.inner); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	e := &Engine{
		spec:    spec,
		names:   ds.inner.Names(),
		useGrid: cfg.UseGridIndex,
		cache:   newResultCache(eo.cacheSize),
	}
	// The initial snapshot carries the v1 data view and no surrogate;
	// nobody can observe the engine before Open returns, so the plain
	// Store (generation 0 = the pre-model state) needs no swap
	// ceremony.
	v, err := e.newView(ds.inner, 1)
	if err != nil {
		return nil, err
	}
	e.surrogate.Store(&snapshot{view: v})
	return e, nil
}

// Dims returns the region dimensionality d.
func (e *Engine) Dims() int { return len(e.spec.FilterCols) }

// view returns the engine's current data view (always non-nil).
func (e *Engine) view() *dataView { return e.surrogate.Load().view }

// Domain returns the data-space bounding box of the filter columns as
// (min, max) slices, as of the engine's current data version.
func (e *Engine) Domain() (min, max []float64) {
	v := e.view()
	return append([]float64(nil), v.domain.Min...), append([]float64(nil), v.domain.Max...)
}

// Rows returns the number of data rows in the engine's current data
// version.
func (e *Engine) Rows() int { return e.view().data.Len() }

// DataVersion returns the version of the dataset the engine currently
// serves: 1 for the dataset Open received, incremented by every
// SetDataset swap. Queries in flight during a swap finish against the
// version they pinned.
func (e *Engine) DataVersion() uint64 { return e.view().version }

// Evaluate computes the true statistic over the region [center ±
// halfSides] plus the number of rows inside, against the engine's
// current data version. This is the expensive back-end call the
// surrogate replaces — and the reference a drift monitor replays
// sampled queries against after appends.
func (e *Engine) Evaluate(center, halfSides []float64) (value float64, count int) {
	return e.view().evaluator.Evaluate(geom.FromCenter(center, halfSides))
}

// TrainSurrogate fits the engine's surrogate model f̂ on a workload
// and atomically swaps it in; queries already running keep the model
// they started with.
func (e *Engine) TrainSurrogate(w Workload, opts ...TrainOptions) error {
	return e.TrainSurrogateContext(context.Background(), w, opts...)
}

// TrainSurrogateContext is TrainSurrogate with cancellation, observed
// within one boosting round on every path: the plain fit, and — with
// HyperTune set — both between grid combinations and inside each
// combination's cross-validation fits. A cancelled call returns
// ctx.Err() promptly and leaves the engine's current surrogate
// untouched.
func (e *Engine) TrainSurrogateContext(ctx context.Context, w Workload, opts ...TrainOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var o TrainOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	var s *core.Surrogate
	var err error
	if o.HyperTune {
		s, _, err = core.TrainSurrogateCVContext(ctx, w.log, core.PaperGrid(o.params()), cvFolds, o.Seed+1)
	} else {
		s, err = core.TrainSurrogateContext(ctx, w.log, o.params())
	}
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	info := e.surrogateInfoFor(s, w.Len(), o.HyperTune)
	e.swapSnapshot(func(*snapshot) *snapshot {
		return &snapshot{surr: s, info: info}
	})
	return nil
}

// surrogateInfoFor assembles the provenance record for a freshly
// trained surrogate from the engine's spec and the model's effective
// hyper-parameters.
func (e *Engine) surrogateInfoFor(s *core.Surrogate, queries int, hyperTuned bool) SurrogateInfo {
	p := s.Model().Params()
	domain := e.view().domain
	info := SurrogateInfo{
		Statistic:      e.spec.Stat.String(),
		FilterColumns:  e.filterNames(),
		DomainMin:      append([]float64(nil), domain.Min...),
		DomainMax:      append([]float64(nil), domain.Max...),
		TrainedQueries: queries,
		Trees:          s.Model().NumTrees(),
		MaxDepth:       p.MaxDepth,
		LearningRate:   p.LearningRate,
		Lambda:         p.Lambda,
		HyperTuned:     hyperTuned,
	}
	if e.spec.Stat.NeedsTarget() {
		info.TargetColumn = e.names[e.spec.TargetCol]
	}
	return info
}

// filterNames returns the engine's filter columns by name, in region-
// dimension order.
func (e *Engine) filterNames() []string {
	out := make([]string, len(e.spec.FilterCols))
	for j, c := range e.spec.FilterCols {
		out[j] = e.names[c]
	}
	return out
}

// HasSurrogate reports whether a surrogate has been trained or loaded.
func (e *Engine) HasSurrogate() bool { return e.surrogate.Load().surr != nil }

// SurrogateInfo describes a surrogate snapshot: the spec it was
// trained for (statistic, filter columns, target), the domain it was
// trained over, and the training it received. It rides along in the
// engine-level artifact written by SaveSurrogate, so a model loaded
// elsewhere still knows what it approximates.
type SurrogateInfo struct {
	// Statistic is the statistic name as ParseStatistic accepts it
	// (the registered name for custom statistics).
	Statistic string
	// FilterColumns are the filter column names in region-dimension
	// order; TargetColumn is empty when the statistic needs none.
	FilterColumns []string
	TargetColumn  string
	// DomainMin and DomainMax bound the region domain the surrogate
	// was trained over (the workload's sampling space).
	DomainMin, DomainMax []float64
	// TrainedQueries is the size of the training workload, grown by
	// every ContinueTraining batch.
	TrainedQueries int
	// Trees, MaxDepth, LearningRate and Lambda are the ensemble's
	// effective hyper-parameters; HyperTuned reports whether they came
	// out of the paper's GridSearchCV.
	Trees        int
	MaxDepth     int
	LearningRate float64
	Lambda       float64
	HyperTuned   bool
	// DataVersion is the version of the dataset this snapshot serves
	// over (1 = the dataset the engine opened with; each SetDataset
	// swap increments it). It is a serving-side property, not part of
	// the trained weights: artifacts restore with the loading engine's
	// current data version.
	DataVersion uint64
}

// CacheStats reports the result cache's lifetime hit, miss and
// rejection counters and current occupancy. A disabled cache
// (WithResultCache(0)) reports zeros. Safe to call concurrently with
// queries; the serving layer exports these through GET /metrics.
func (e *Engine) CacheStats() CacheStats {
	return e.cache.stats()
}

// SurrogateInfo returns the provenance of the engine's current
// surrogate snapshot; ok is false when none is trained or loaded.
func (e *Engine) SurrogateInfo() (info SurrogateInfo, ok bool) {
	sn := e.surrogate.Load()
	if sn.surr == nil {
		return SurrogateInfo{}, false
	}
	return sn.info, true
}

// PredictStatistic returns the surrogate's estimate for a region
// without touching the data. center and halfSides must each have Dims
// entries; other lengths return a wrapped ErrDimMismatch, so no
// request shape can reach the surrogate's panicking Predict.
func (e *Engine) PredictStatistic(center, halfSides []float64) (float64, error) {
	s := e.surrogate.Load().surr
	if s == nil {
		return 0, ErrNoSurrogate
	}
	dims := e.Dims()
	if len(center) != dims || len(halfSides) != dims {
		return 0, fmt.Errorf("%w: region of %d center and %d half-side coordinates for engine of dimension %d",
			ErrDimMismatch, len(center), len(halfSides), dims)
	}
	return s.Predict(center, halfSides), nil
}

// PredictStatisticBatch writes the surrogate's estimate for each
// region row into out. Each row is the flat [center..., halfSides...]
// encoding of one region (length 2·Dims; see EncodeRegion conventions
// in Find results), and out must have exactly len(rows) entries. The
// call performs no allocation beyond validation, making it the
// preferred form for high-throughput probing; every row is evaluated
// against one compiled-model snapshot even if a retrain swaps the
// surrogate mid-call.
//
// Shape errors map to the public sentinels (ErrBadQuery for the
// output length, ErrDimMismatch for row widths); the surrogate's own
// validating boundary backstops them, so no request shape can ever
// reach the kernel's internal panics.
func (e *Engine) PredictStatisticBatch(rows [][]float64, out []float64) error {
	s := e.surrogate.Load().surr
	if s == nil {
		return ErrNoSurrogate
	}
	if len(out) != len(rows) {
		return fmt.Errorf("%w: output of length %d for %d rows", ErrBadQuery, len(out), len(rows))
	}
	dims := e.Dims()
	for i, r := range rows {
		if len(r) != 2*dims {
			return fmt.Errorf("%w: row %d of length %d for engine of dimension %d (want 2·d)",
				ErrDimMismatch, i, len(r), dims)
		}
	}
	if err := s.PredictBatch(rows, out); err != nil {
		return fmt.Errorf("%w: %v", ErrDimMismatch, err)
	}
	return nil
}
