package surf

import (
	"fmt"

	"surf/internal/gbt"
	"surf/internal/stats"
)

// Statistic enumerates the supported region statistics.
type Statistic int

// Supported statistics. Count is the paper's "density" statistic; Mean
// over a target column is its "aggregate" statistic. They run in
// stats.Kind's order, so a Statistic converts to its Kind directly.
const (
	Count Statistic = iota
	Sum
	Mean
	Min
	Max
	Median
	Variance
	StdDev
	Ratio
)

// kind resolves a Statistic to its internal stats.Kind, accepting
// both the built-in enum and values returned by CustomStatistic. The
// built-ins share stats.Kind's numbering, so both are conversions.
func (s Statistic) kind() (stats.Kind, bool) {
	k := stats.Kind(s)
	return k, (s >= Count && s <= Ratio) || k.IsCustom()
}

// String names the statistic (the registered name for custom
// statistics).
func (s Statistic) String() string {
	if k, ok := s.kind(); ok {
		return k.String()
	}
	return fmt.Sprintf("Statistic(%d)", int(s))
}

// ParseStatistic converts a name like "count" or "mean" — or the name
// of a statistic registered with CustomStatistic — to a Statistic.
func ParseStatistic(name string) (Statistic, error) {
	k, err := stats.ParseKind(name)
	if err != nil {
		return 0, err
	}
	return Statistic(k), nil
}

// CustomStatistic registers a named statistic computed by fn over the
// data rows inside a region and returns a Statistic that composes
// with the built-in enum everywhere: Config.Statistic, workload
// generation, surrogate training, Find/Stream/FindMany, and
// ParseStatistic/String round-trips. Each row passed to fn carries
// the dataset's columns in Names() order; rows arrive in no
// guaranteed order and may be empty — return NaN to mark the
// statistic undefined on a region (workload generation then resamples
// it, exactly as for the built-in undefined-on-empty statistics).
// Custom statistics need no TargetColumn: fn sees whole rows.
//
// The registration is process-wide (a name can be registered once and
// parses from any engine) and fn must be safe for concurrent calls.
// Registering an empty name, a nil function, or a name already taken
// by a built-in or earlier registration returns ErrBadConfig.
func CustomStatistic(name string, fn func(rows [][]float64) float64) (Statistic, error) {
	k, err := stats.Register(name, fn)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return Statistic(k), nil
}

// Option customizes an engine at Open time.
type Option func(*engineOptions)

type engineOptions struct {
	cacheSize int
}

// WithResultCache sizes the engine's query-result cache (default 64
// entries; 0 or negative disables it). Find, FindTopK, FindMany,
// Stream and StreamTopK all consult the cache: a repeat of a recently
// answered query against the same surrogate snapshot returns the
// cached Result (as a private copy) without re-running the swarm — a
// stream then comes back finished, its only event the EventDone
// carrying that Result, with no telemetry or incumbents. The key is the resolved query — every
// zero knob set to its default, Workers (which cannot change the
// answer) dropped — so an explicit default and a zero share an entry.
// Keys also carry the snapshot generation, and the cache is cleared
// whenever TrainSurrogate, LoadSurrogate or SetDataset swaps the
// snapshot, so a stale model's or data version's results are never
// served. Every run that completes offers its Result to the cache,
// whichever entry point started it. Recency decides which entry a full
// cache evicts, and popularity whether it evicts one at all: the cache
// counts every lookup of a query (the counts halve every 32 × entries
// lookups), and a full cache admits a new answer only if its query was
// looked up at least as often as the least recently used entry's.
// Ties admit, so one-off queries behave as in a plain LRU cache, while
// a one-off query cannot push out a popular answer; CacheStats.Rejected
// counts the answers turned away.
//
// Caching assumes repeated queries are deterministic, which holds
// for every built-in code path over the engine's immutable dataset
// versions. Disable it if a custom statistic's function is not a pure
// function of its rows.
func WithResultCache(entries int) Option {
	return func(o *engineOptions) { o.cacheSize = entries }
}

// cvFolds is the fold count of HyperTune's cross-validation.
const cvFolds = 3

// TrainOptions tune surrogate training. The learning rate (0.1) and
// λ (1) are gbt.DefaultParams' constants, and training always uses one
// goroutine per available CPU; the trained model is bit-identical for
// any CPU count.
type TrainOptions struct {
	// Trees and MaxDepth override the boosted-tree hyper-parameters
	// (zero keeps the default: 100 trees, depth 6).
	Trees    int
	MaxDepth int
	// HyperTune runs the paper's 144-combination grid search, over
	// learning rate and λ as well, with 3-fold CV before the final
	// fit. Slower but more accurate.
	HyperTune bool
	// Seed drives the CV fold shuffling under HyperTune. Training
	// itself draws nothing at random.
	Seed uint64
}

func (o TrainOptions) params() gbt.Params {
	p := gbt.DefaultParams()
	if o.Trees > 0 {
		p.NumTrees = o.Trees
	}
	if o.MaxDepth > 0 {
		p.MaxDepth = o.MaxDepth
	}
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	return p
}
