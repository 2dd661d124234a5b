package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	surf "surf"
	"surf/internal/dataset"
)

// Sentinel errors. ErrUnknownDataset reports a name with no registered
// entry (the HTTP layer maps it to 404); ErrBadSpec reports a spec
// that can never load (400). Artifact/spec mismatches wrap
// surf.ErrBadArtifact (422).
var (
	ErrUnknownDataset = errors.New("registry: unknown dataset")
	ErrBadSpec        = errors.New("registry: bad model spec")
	// ErrBadAppend reports an append batch the entry's store rejected —
	// wrong row width, empty batch (400 at the HTTP layer).
	ErrBadAppend = errors.New("registry: bad append")
)

// Spec describes one registry entry: where the data lives, what the
// engine computes over it, and where its surrogate comes from. Its
// JSON form is the PUT /v1/models/{name} request body and the
// surf-serve config-file entry.
type Spec struct {
	// Data is the dataset CSV path.
	Data string `json:"data"`
	// FilterColumns, Statistic and TargetColumn mirror surf.Config;
	// Statistic is a name surf.ParseStatistic accepts.
	FilterColumns []string `json:"filter_columns"`
	Statistic     string   `json:"statistic"`
	TargetColumn  string   `json:"target_column,omitempty"`
	// Artifact is a surrogate artifact path (surf-train / SaveSurrogate
	// output) loaded into the engine at entry load time. Mutually
	// exclusive with Train.
	Artifact string `json:"artifact,omitempty"`
	// Train, when positive, trains a surrogate at entry load time from
	// this many generated workload queries (seeded by TrainSeed). The
	// entry reports the "training" state while it runs.
	Train     int    `json:"train,omitempty"`
	TrainSeed uint64 `json:"train_seed,omitempty"`
	// UseGridIndex builds grid indexes for true-function evaluation.
	UseGridIndex bool `json:"use_grid_index,omitempty"`
	// DriftThreshold enables drift-triggered background retraining:
	// after every append the surrogate's normalized residual is
	// re-measured over a reservoir of replayed training queries, and a
	// score above the threshold kicks an incremental retrain that
	// hot-swaps the extended model in: defaultRetrainTrees (25) extra
	// boosting rounds fitted to defaultRetrainQueries (256) fresh
	// region evaluations against the latest data version. 0 disables
	// auto-retrain (drift is still scored when DriftReservoir > 0).
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// DriftReservoir sizes the replay reservoir (0 = default 64 when
	// monitoring is on, -1 = disable drift monitoring entirely).
	// Monitoring is on when this is positive or DriftThreshold is set.
	DriftReservoir int `json:"drift_reservoir,omitempty"`
}

// driftEnabled reports whether the spec asks for drift monitoring:
// explicitly via a positive reservoir, or implicitly via a retrain
// threshold (validate rejects a threshold with monitoring disabled).
func (s Spec) driftEnabled() bool {
	return s.DriftReservoir > 0 || (s.DriftThreshold > 0 && s.DriftReservoir != -1)
}

// merge fills s's zero fields from prev — the hot-swap inheritance
// rule: a Register carrying only the changed fields (typically just a
// new artifact path) keeps the rest of the running spec. Artifact and
// Train are the one mutually exclusive pair, so setting either one
// explicitly drops the other's inherited value; likewise an explicit
// DriftReservoir of -1 turns drift monitoring off and so drops the
// inherited DriftThreshold.
func (s Spec) merge(prev Spec) Spec {
	if s.Data == "" {
		s.Data = prev.Data
	}
	if s.FilterColumns == nil {
		s.FilterColumns = prev.FilterColumns
	}
	if s.Statistic == "" {
		s.Statistic = prev.Statistic
	}
	if s.TargetColumn == "" {
		s.TargetColumn = prev.TargetColumn
	}
	if !s.UseGridIndex {
		s.UseGridIndex = prev.UseGridIndex
	}
	if s.DriftThreshold == 0 && s.DriftReservoir != -1 {
		s.DriftThreshold = prev.DriftThreshold
	}
	if s.DriftReservoir == 0 {
		s.DriftReservoir = prev.DriftReservoir
	}
	switch {
	case s.Artifact != "" || s.Train > 0:
		// Explicit model source; inherit neither.
	default:
		s.Artifact, s.Train, s.TrainSeed = prev.Artifact, prev.Train, prev.TrainSeed
	}
	return s
}

// validate rejects specs that can never load, checking the cheap
// invariants, the columns against the CSV's header line (by
// surf.Open's own rules, over a zero-row dataset of that header; the
// rows are left for the load) and the artifact's declared metadata
// (statistic, filter and target columns must match the spec) so a bad
// PUT fails at registration time, not at the first query.
func (s Spec) validate() error {
	switch {
	case s.Data == "":
		return fmt.Errorf("%w: no dataset path", ErrBadSpec)
	case len(s.FilterColumns) == 0:
		return fmt.Errorf("%w: no filter columns", ErrBadSpec)
	case s.Train < 0:
		return fmt.Errorf("%w: train %d queries", ErrBadSpec, s.Train)
	case s.Artifact != "" && s.Train > 0:
		return fmt.Errorf("%w: artifact and train are mutually exclusive", ErrBadSpec)
	case math.IsNaN(s.DriftThreshold) || math.IsInf(s.DriftThreshold, 0) || s.DriftThreshold < 0:
		return fmt.Errorf("%w: drift threshold %g", ErrBadSpec, s.DriftThreshold)
	case s.DriftReservoir < -1:
		return fmt.Errorf("%w: drift reservoir %d", ErrBadSpec, s.DriftReservoir)
	case s.DriftThreshold > 0 && s.DriftReservoir == -1:
		return fmt.Errorf("%w: drift threshold set with drift monitoring disabled", ErrBadSpec)
	case s.driftEnabled() && s.Artifact == "" && s.Train == 0:
		return fmt.Errorf("%w: drift monitoring needs a surrogate (artifact or train)", ErrBadSpec)
	}
	stat, err := surf.ParseStatistic(s.Statistic)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	f, err := os.Open(s.Data)
	if err != nil {
		return fmt.Errorf("%w: dataset: %v", ErrBadSpec, err)
	}
	names, err := dataset.ReadCSVHeader(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%w: dataset: %v", ErrBadSpec, err)
	}
	if s.Artifact != "" {
		f, err := os.Open(s.Artifact)
		if err != nil {
			return fmt.Errorf("%w: artifact: %v", ErrBadSpec, err)
		}
		info, err := surf.ReadSurrogateInfo(f)
		f.Close()
		if err != nil {
			return err // wraps surf.ErrBadArtifact
		}
		if info.Statistic != s.Statistic {
			return fmt.Errorf("%w: artifact trained for statistic %q, spec computes %q",
				surf.ErrBadArtifact, info.Statistic, s.Statistic)
		}
		if !slices.Equal(info.FilterColumns, s.FilterColumns) {
			return fmt.Errorf("%w: artifact trained over filter columns %v, spec uses %v",
				surf.ErrBadArtifact, info.FilterColumns, s.FilterColumns)
		}
		// The artifact names a target exactly when its statistic (equal
		// to the spec's, checked above) aggregates one.
		if info.TargetColumn != "" && info.TargetColumn != s.TargetColumn {
			return fmt.Errorf("%w: artifact aggregates target column %q, spec aggregates %q",
				surf.ErrBadArtifact, info.TargetColumn, s.TargetColumn)
		}
	}
	header, err := surf.NewDataset(names, make([][]float64, len(names)))
	if err == nil {
		_, err = surf.Open(header, surf.Config{FilterColumns: s.FilterColumns, Statistic: stat, TargetColumn: s.TargetColumn})
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// entry is one catalog slot. All mutable fields are guarded by the
// registry mutex; the engineSet a field points to is itself immutable,
// so a Handle that copied the pointer under the lock reads it freely.
type entry struct {
	name    string
	spec    Spec
	version int
	// set is non-nil exactly when the entry is loaded; loading is
	// non-nil (and closed on completion) while a load is in flight.
	set     *engineSet
	loading chan struct{}
	// training marks the in-flight load as a startup training run.
	training bool
	loadErr  error
	// evicted distinguishes "never loaded" from "loaded once, evicted
	// under capacity pressure" in status reports.
	evicted bool
	// loadDur is the wall time of the last completed load (including
	// any startup training), kept across evictions for telemetry.
	loadDur time.Duration
	// inflight counts unreleased Handles; eviction skips busy entries.
	inflight int
	lruEl    *list.Element
	// store is the entry's living dataset: it outlives engine-set swaps
	// and evictions, so appended rows survive a hot swap or a reload,
	// and is rebuilt only when the spec's data path changes (storeData
	// remembers the path it was seeded from). Guarded by the registry
	// mutex like every other entry field; the Store itself is
	// concurrency-safe.
	store     *surf.Store
	storeData string
	// appendMu serializes Append's store-commit → engine-swap → drift
	// sequence per entry, off the registry mutex so appends never block
	// Acquire. Queries need no lock: engines swap data snapshots
	// atomically.
	appendMu sync.Mutex
	// retrainCancel cancels the in-flight drift-triggered retrain, if
	// any; detach and Remove fire it so an orphaned engine set does not
	// keep training.
	retrainCancel context.CancelFunc
}

// state reports the entry's lifecycle state for status listings.
func (e *entry) state() string {
	switch {
	case e.set != nil:
		return "ready"
	case e.loading != nil && e.training:
		return "training"
	case e.loading != nil:
		return "loading"
	case e.loadErr != nil:
		return "failed"
	case e.evicted:
		return "evicted"
	}
	return "unloaded"
}

// Registry is a concurrency-safe catalog of named, versioned engine
// entries. The zero value is not usable; construct with New.
type Registry struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*entry
	// lru holds loaded entries, most recently used first.
	lru *list.List
}

// New returns an empty registry keeping at most capacity entries
// loaded at once (<= 0 means unbounded). Eviction is lazy and soft:
// it runs when a handle pins an entry and when one releases, and never
// unloads an entry with in-flight queries — so the loaded count can
// transiently exceed capacity until traffic touches the registry.
func New(capacity int) *Registry {
	return &Registry{
		capacity: capacity,
		entries:  make(map[string]*entry),
		lru:      list.New(),
	}
}

// Register records (or, for an existing name, replaces) the spec for a
// dataset name and returns the entry's new version, starting at 1.
// Zero-valued fields of a replacement spec inherit from the replaced
// one, so a spec carrying only a new artifact path hot-swaps the model
// of a running entry. The swap is atomic: the loaded engine set (if
// any) is detached under the registry lock, requests holding a handle
// finish against the set they pinned, and the next request loads the
// new spec lazily. Invalid specs — including an artifact whose
// declared statistic or filter columns contradict the spec — are
// rejected without touching the entry.
func (r *Registry) Register(name string, spec Spec) (version int, err error) {
	if name == "" {
		return 0, fmt.Errorf("%w: empty dataset name", ErrBadSpec)
	}
	r.mu.Lock()
	if prev, ok := r.entries[name]; ok {
		spec = spec.merge(prev.spec)
	}
	r.mu.Unlock()
	// Validation does file I/O; keep it outside the lock. A concurrent
	// Register for the same name races benignly: both validate, last
	// write wins, exactly as two sequential PUTs would.
	if err := spec.validate(); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name}
		r.entries[name] = e
	}
	e.spec = spec
	e.version++
	e.loadErr = nil
	r.detachLocked(e)
	return e.version, nil
}

// Remove deletes the named entry. Requests holding a handle finish
// against the engine set they pinned; new requests get
// ErrUnknownDataset.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	r.detachLocked(e)
	delete(r.entries, name)
	return nil
}

// detachLocked drops the entry's loaded engine set (handles already
// pinning it keep it alive) and removes it from the LRU. An in-flight
// load keeps running and discards its result on completion via the
// version check in Acquire's load path.
func (r *Registry) detachLocked(e *entry) {
	if e.lruEl != nil {
		r.lru.Remove(e.lruEl)
		e.lruEl = nil
	}
	if e.retrainCancel != nil {
		e.retrainCancel()
		e.retrainCancel = nil
	}
	if e.set != nil {
		e.set = nil
		e.evicted = false // replaced, not evicted
	}
}

// evictLocked unloads least-recently-used idle entries until the
// loaded count fits the capacity. Entries with in-flight queries are
// skipped — a busy entry is never evicted — so the loaded count may
// stay above capacity until handles release.
func (r *Registry) evictLocked() {
	if r.capacity <= 0 {
		return
	}
	for el := r.lru.Back(); el != nil && r.lru.Len() > r.capacity; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.inflight == 0 {
			r.lru.Remove(el)
			e.lruEl = nil
			e.set = nil
			e.evicted = true
			// The store survives (appended rows reload with the entry);
			// an in-flight retrain of the dropped set does not.
			if e.retrainCancel != nil {
				e.retrainCancel()
				e.retrainCancel = nil
			}
		}
		el = prev
	}
}

// Acquire resolves a dataset name to a handle on its current engine
// set, loading the entry first if needed. Concurrent acquirers of a
// cold entry share one load (and one training run); ctx bounds only
// this caller's wait — the load itself belongs to the registry and
// keeps running for the next acquirer if ctx expires. The returned
// handle pins the engine set against hot swaps and eviction; callers
// must Release it when the request completes.
func (r *Registry) Acquire(ctx context.Context, name string) (*Handle, error) {
	r.mu.Lock()
	for {
		e, ok := r.entries[name]
		if !ok {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
		}
		if e.set != nil {
			e.inflight++
			r.lru.MoveToFront(e.lruEl)
			h := &Handle{r: r, e: e, set: e.set}
			// Evict only after pinning: the in-flight count protects
			// this entry, so capacity pressure lands on idle ones. A
			// load completion deliberately does not evict — its waiters
			// have not pinned yet, and evicting the entry they are
			// about to use would livelock a full registry.
			r.evictLocked()
			r.mu.Unlock()
			return h, nil
		}
		if e.loading != nil {
			ch := e.loading
			r.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			r.mu.Lock()
			continue
		}
		if e.loadErr != nil {
			err := e.loadErr
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: dataset %q failed to load: %w", name, err)
		}
		// Cold entry: start the load and loop back to wait on it.
		r.startLoadLocked(e)
	}
}

// startLoadLocked launches the load of a cold or evicted entry, which
// Acquire's waiters and Warm share: it marks the entry loading (and
// training, when the spec trains at startup) and hands the load the
// current spec, version and reusable store. The load goroutine takes
// the registry mutex only when it completes.
func (r *Registry) startLoadLocked(e *entry) {
	ch := make(chan struct{})
	e.loading = ch
	e.training = e.spec.Train > 0
	go r.load(e.name, e.spec, e.version, e.reusableStoreLocked(), ch)
}

// reusableStoreLocked returns the entry's living store when the
// current spec still reads the same data path — a reload then serves
// the store's latest version, appended rows included — and nil when
// the data source changed, so the load seeds a fresh store from the
// new CSV.
func (e *entry) reusableStoreLocked() *surf.Store {
	if e.store != nil && e.storeData == e.spec.Data {
		return e.store
	}
	return nil
}

// load materializes an engine set for spec and installs it, unless a
// Register or Remove changed the entry while the load ran — then the
// result is discarded and the next Acquire loads the current spec.
// Loads deliberately run under a background context: they are shared
// by every waiter, so one caller's disconnect must not abort a
// training run others are waiting on.
func (r *Registry) load(name string, spec Spec, version int, store *surf.Store, ch chan struct{}) {
	start := time.Now()
	//lint:allow ctxflow: loads are shared by every waiter; one caller's disconnect must not abort a training run others wait on
	set, err := buildEngineSet(context.Background(), spec, version, store)
	dur := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	defer close(ch)
	e, ok := r.entries[name]
	if !ok || e.loading != ch {
		return // entry removed or reset mid-load
	}
	e.loading = nil
	e.training = false
	if e.version != version {
		return // spec swapped mid-load; discard, next Acquire reloads
	}
	e.loadDur = dur
	if err != nil {
		e.loadErr = err
		return
	}
	// No eviction here: the waiters blocked in Acquire have not pinned
	// the new set yet, so this entry would itself be the idle LRU
	// candidate. The first Acquire to pin it evicts on its behalf.
	e.set = set
	e.store = set.store
	e.storeData = spec.Data
	e.evicted = false
	e.lruEl = r.lru.PushFront(e)
}

// Warm starts loading the named entry without waiting for it: a cold
// or evicted entry begins its load (sharing it with any concurrent
// Acquire, exactly as Acquire's own cold path would), while an entry
// that is ready, already loading, or failed is left alone. It returns
// immediately in every case. Readiness probes use it so a /readyz
// check both reports and drives the lazily-loading default dataset
// toward ready.
func (r *Registry) Warm(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	if e.set == nil && e.loading == nil && e.loadErr == nil {
		r.startLoadLocked(e)
	}
	return nil
}

// release is Handle.Release: the entry becomes evictable again once
// its in-flight count drains.
func (r *Registry) release(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.inflight--
	r.evictLocked()
}

// ModelStatus is one entry's externally visible state, as reported by
// List and the /healthz and /v1/models endpoints.
type ModelStatus struct {
	Name    string
	Version int
	// State is one of unloaded, loading, training, ready, failed,
	// evicted.
	State string
	Spec  Spec
	// Rows is the loaded dataset's row count (0 unless ready).
	Rows int
	// Surrogate reports whether the loaded entry can serve surrogate
	// queries; Info carries the model's provenance when it can.
	Surrogate bool
	Info      *surf.SurrogateInfo
	// Err is the load failure, when State is failed.
	Err string
	// InFlight is the number of unreleased handles.
	InFlight int
	// LoadSeconds is the wall time of the last completed load,
	// including any startup training (0 if never loaded).
	LoadSeconds float64
	// Cache reports the entry's engine result cache. Zero unless
	// ready.
	Cache surf.CacheStats
	// DataVersion is the dataset version the entry serves: 1 for the
	// CSV as loaded, incremented by every append (0 unless ready).
	DataVersion uint64
	// Drift reports the entry's drift monitor — nil when the spec does
	// not enable drift monitoring or the entry is not ready.
	Drift *DriftStatus
}

// DriftStatus is the externally visible state of one entry's drift
// monitor.
type DriftStatus struct {
	// Score is the surrogate's normalized residual over the replayed
	// reservoir as of the last check (0 until Checked).
	Score float64
	// Threshold is the spec's auto-retrain trigger (0 = score only).
	Threshold float64
	// Samples is the reservoir size being replayed.
	Samples int
	// Checked reports whether any drift evaluation has run yet.
	Checked bool
	// Retraining is true while a drift-triggered retrain is in flight;
	// Retrains counts completed ones for this engine set.
	Retraining bool
	Retrains   uint64
	// LastError is the most recent retrain failure, if any.
	LastError string
}

// List reports every entry's status, sorted by name.
func (r *Registry) List() []ModelStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelStatus, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.statusLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Status reports one entry's status.
func (r *Registry) Status(name string) (ModelStatus, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return ModelStatus{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return e.statusLocked(), nil
}

// statusLocked builds the entry's status; the registry mutex must be
// held.
func (e *entry) statusLocked() ModelStatus {
	st := ModelStatus{
		Name:        e.name,
		Version:     e.version,
		State:       e.state(),
		Spec:        e.spec,
		InFlight:    e.inflight,
		LoadSeconds: e.loadDur.Seconds(),
	}
	if e.loadErr != nil {
		st.Err = e.loadErr.Error()
	}
	if e.set != nil {
		// Live row count: appends grow the entry between loads.
		st.Rows = e.set.engine.Rows()
		st.Surrogate = e.set.engine.HasSurrogate()
		if info, ok := e.set.engine.SurrogateInfo(); ok {
			st.Info = &info
		}
		st.Cache = e.set.engine.CacheStats()
		st.DataVersion = e.set.engine.DataVersion()
		if e.set.drift != nil {
			st.Drift = e.set.drift.status()
		}
	}
	return st
}
