// Package surf mines "interesting" data regions: axis-aligned
// hyper-rectangles whose statistic (count, mean, ratio, …) exceeds or
// falls below an analyst-supplied threshold.
//
// It implements SuRF (SUrrogate Region Finder) from Savva,
// Anagnostopoulos & Triantafillou, "SuRF: Identification of
// Interesting Data Regions with Surrogate Models", ICDE 2020. Instead
// of scanning the dataset for every candidate region, SuRF trains a
// gradient-boosted-tree surrogate on past region evaluations and runs
// Glowworm Swarm Optimization over the region space, so query time is
// independent of the data size.
//
// # Typical use
//
//	ds, _ := surf.NewDataset([]string{"x", "y"}, cols)
//	eng, _ := surf.Open(ds, surf.Config{
//		FilterColumns: []string{"x", "y"},
//		Statistic:     surf.Count,
//	})
//	wl, _ := eng.GenerateWorkload(5000, 1)     // past evaluations
//	_ = eng.TrainSurrogate(wl)                 // fit f̂
//	res, _ := eng.Find(surf.Query{Threshold: 1000, Above: true})
//	for _, r := range res.Regions { fmt.Println(r.Min, r.Max, r.Estimate) }
//
// # The v2 serving API
//
// The package is designed to sit inside a server handling concurrent
// query traffic:
//
//   - Every long-running entry point has a context-accepting form
//     (FindContext, FindTopKContext, TrainSurrogateContext,
//     GenerateWorkloadContext). Cancellation is plumbed into the
//     optimizer (honored within one swarm iteration) and into
//     surrogate training (honored within one boosting round, on the
//     plain fit and inside every hyper-tuning fold alike); the
//     context-free names are thin context.Background() wrappers.
//   - An Engine is safe for concurrent use. Queries read an atomic
//     snapshot of the surrogate, so TrainSurrogate or LoadSurrogate
//     may swap the model while Find calls are in flight.
//   - Failures are classified by exported sentinel errors
//     (ErrNoSurrogate, ErrDimMismatch, ErrBadConfig, …) that work
//     with errors.Is. Queries are validated up front, before any
//     mining starts, so ErrBadQuery surfaces immediately from Find,
//     Stream and FindMany alike.
//
// # Streaming queries
//
// Find blocks until the swarm converges; Engine.Stream delivers the
// same run progressively. The stream emits EventIteration telemetry
// every optimizer iteration, an EventRegion the moment an incumbent
// region's swarm cluster stabilizes, and a terminal EventDone whose
// Result is identical to the batch call's — Find is implemented as a
// drained Stream, so there is exactly one execution path. A query the
// result cache already answers (see below) streams only its EventDone:
//
//	st, _ := eng.Stream(ctx, surf.Query{Threshold: 1000, Above: true})
//	for ev, err := range st.Events() {
//		if err != nil {
//			break // the run failed or was cancelled
//		}
//		switch ev := ev.(type) {
//		case surf.EventRegion:
//			fmt.Println("incumbent:", ev.Region.Min, ev.Region.Max)
//		case surf.EventDone:
//			fmt.Println("final:", len(ev.Result.Regions), "regions")
//		}
//	}
//
// Breaking out of the loop (or cancelling ctx) stops the mining
// goroutine within one swarm iteration; Stream.Result then returns
// the incumbents delivered so far together with the run's error.
// Engine.FindMany executes a batch of queries against one pinned
// surrogate snapshot on a shared worker pool, yielding each result as
// it finishes.
//
// # Custom statistics
//
// Beyond the built-in enum, CustomStatistic registers a named
// statistic computed by an arbitrary function over the data rows
// inside a region. The result composes with everything: Config,
// workload generation, surrogate training, Find/Stream/FindMany and
// ParseStatistic round trips.
//
//	spread, _ := surf.CustomStatistic("spread", func(rows [][]float64) float64 {
//		if len(rows) == 0 {
//			return math.NaN() // undefined on empty regions
//		}
//		lo, hi := math.Inf(1), math.Inf(-1)
//		for _, r := range rows {
//			lo, hi = math.Min(lo, r[2]), math.Max(hi, r[2])
//		}
//		return hi - lo
//	})
//	eng, _ := surf.Open(ds, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: spread})
//
// # Model artifacts
//
// The trained surrogate is the durable asset of a SuRF deployment
// ("train once, reuse", paper Section V-D). SaveSurrogate writes a
// versioned artifact carrying the ensemble together with the spec it
// was trained for (statistic, filter columns, target), the training
// domain and the training metadata SurrogateInfo reports.
// LoadSurrogate restores it with bit-identical predictions — the
// compiled inference snapshot is rebuilt on load — and rejects, with
// ErrBadArtifact, an artifact whose spec does not match the engine:
// different statistic, different filter columns, different target, a
// corrupt payload (format-2 artifacts carry a CRC-32 of it), or a
// format version from a newer build. Custom
// statistics persist by registered name and must be registered (via
// CustomStatistic) in the loading process before the artifact loads.
//
//	var buf bytes.Buffer
//	_ = eng.SaveSurrogate(&buf)                 // versioned artifact
//	eng2, _ := surf.Open(ds, sameConfig)
//	_ = eng2.LoadSurrogate(&buf)                // bit-identical predictions
//	info, _ := eng2.SurrogateInfo()             // provenance survives
//
// # Training performance
//
// Surrogate training is the dominant offline cost, so the boosted-tree
// trainer runs as a parallel pipeline: histogram construction and
// best-split search fan out across features (and large nodes across
// row chunks) over one goroutine per CPU, sibling histograms are
// derived by subtraction instead of a second scan, and per-round
// prediction updates come from the leaf assignments captured during
// tree growth rather than re-walking every tree. Parallelism changes
// no result — the trained model is byte-identical for every goroutine
// count, so retraining on a different machine shape never changes
// results. A cancelled TrainSurrogateContext returns within one
// boosting round and leaves the engine's current surrogate snapshot
// untouched; incremental training behaves the same way, committing its
// extra trees all-or-nothing.
//
// # Query parallelism
//
// Query.Workers and TopKQuery.Workers spread each swarm iteration's
// fitness evaluations, its neighbour scan and, for UseKDE queries, its
// Eq. 8 selection weights across goroutines: 0 = one per CPU (as in
// training), 1 = sequential, answers identical for any value. Every
// particle's fitness and weight depend only on its own position, and
// every particle moves from the positions the swarm held when the
// iteration's movement began, with the random draws made in particle
// order on one goroutine, so the parallel run is the sequential one;
// the optimizer caps the worker count at GOMAXPROCS and at one worker
// per two glowworms. After the first
// iteration only the particles that moved are scored again; a particle
// that stayed put keeps its fitness, a function of its position alone.
// On surrogate finds over the benchmark's density data about 30% of
// particle-iterations stay put. A weight only scales a particle's
// chance of being picked as a strictly brighter neighbour, so only the
// moved particles ranked above the dimmest luciferin tie group are
// weighed; one in that group is weighed once an iteration ranks it
// above the group, at the position it kept. Particles that were never
// valid form that group, so a UseKDE find on the benchmark's density
// data computes about 40 box masses instead of 491.
// The Eq. 8 prior is the density of the data, so nothing in it
// depends on the query: each data version holds at most one, fitted
// by its first UseKDE query and shared by every later one with the
// same KDESample, whatever its Seed. A query with another KDESample
// refits it and replaces it; an append or SetDataset makes a new data
// version, which fits its own on its first UseKDE query. The fit draws
// a KDESample-point uniform sample from one fixed stream, straight
// from the data's columns: an O(N) shuffle of 4-byte row indices plus
// a copy of the sampled rows, about 25 ms on the benchmark's 1.36M
// rows, paid once per data version instead of once per query.
// A box mass sums, over that sample, per-dimension differences of the
// normal CDF Φ, read from one table built once per process: in steps
// of 1/64 over z ∈ [−9, 9], the cubic matching Φ and its slope at both
// ends of each step, and 0 or 1 outside. It is within 8.6e−11 of Φ,
// and box masses stay within 4e−9 relative of the exact Erfc sum,
// so answers did not change. The mass of a 0.01 half-side box on the
// default sample costs about 21–26 µs instead of 184–225, and a UseKDE
// find on the benchmark's density data about 2.4 ms instead of 6.2.
//
// # Inference kernel
//
// Every surrogate prediction — the swarm's objective,
// PredictStatistic(Batch), FindMany, continued training's residual
// start and hyper-parameter cross-validation — is served by one
// compiled inference kernel, built when a surrogate is trained or loaded: the
// ensemble flattened into one contiguous array of 16-byte nodes, with
// children laid out breadth-first so a split's right child sits next
// to its left, walked with a branch-free child select and, in
// batches, trees in the outer loop and eight rows in lockstep in the
// inner loop. Leaves loop onto themselves, so every row takes exactly
// its tree's depth in steps, with no leaf test. It predicts
// bit-for-bit what the trained ensemble's own tree walk returns,
// including on NaN and ±Inf values, and a differential fuzz target
// holds it to that contract.
//
// Threshold finds on a surrogate use the kernel's bounded walk for
// the swarm's predictions. Under Eq. 4 a region on the wrong side of
// yR scores the same whatever its estimate, so the walk takes the
// trees in blocks of eight. Before each block it drops every row whose
// partial sum plus a bound on the remaining trees cannot reach the
// valid side. The bound adds up, per remaining tree, the largest leaf
// (for Below, the smallest) reachable from the row's cell. Cells cut
// each feature into up to four bins at quantiles of its split
// thresholds, at most 256 cells in all; a row with a NaN feature uses
// the global bound. The tables are built once per surrogate. Each
// check carries a relative rounding margin of 1e-9, far above the
// rounding error of the sums, so a row is dropped only if its full
// prediction is on the invalid side. Kept rows are predicted bit for
// bit as before, so answers do not change. Top-k and ratio
// objectives, region estimates, PredictStatistic(Batch) and
// true-function finds walk every tree.
//
// The compiled model is one concrete type; each of its calls adds the
// rows entering it, itself and its wall time to three process-wide
// counters, which /metrics exports as the surf_kernel_* families under
// the constant label kernel="scalar".
//
// # Serving and caching
//
// Package surf/server exposes an Engine over HTTP: POST /v1/find,
// /v1/topk and /v1/findmany, GET or POST /v1/stream (the event feed
// as Server-Sent Events, encoded with MarshalEvent), GET /healthz
// (liveness), GET /readyz (readiness) and GET /metrics (Prometheus
// text format), with the sentinel errors mapped to statuses
// (ErrBadQuery → 400, ErrNoSurrogate → 409, ErrBadArtifact → 422)
// and rendered as a uniform {"error": {"code", "message",
// "request_id"}} envelope — the full code table is in the server
// package documentation. Every request gets an ID (client-supplied
// or generated) echoed in the X-Request-Id header and response body,
// and the server can emit one structured log/slog line per request.
// Query, TopKQuery, Result, Region and the events all have stable
// snake_case JSON forms; non-finite floats encode as the strings
// "NaN", "+Inf" and "-Inf". Results, regions and events use a
// hand-written codec rather than reflection: append functions
// (Result.AppendJSON, AppendEvent) that the server writes answers and
// SSE frames with, and one single-pass decoder behind the
// UnmarshalJSON methods and UnmarshalEvent. The decoder accepts a
// subset of what encoding/json accepted for these types (keys match
// case-sensitively) and decodes every input it accepts to the same
// bits. The surf-serve command is its CLI front-end.
//
// Package surf/registry scales that server to many datasets: a
// concurrency-safe catalog of named, versioned engine entries that
// load lazily, evict least-recently-used under a capacity bound
// (never while serving a query) and hot-swap atomically — in-flight
// queries finish against the engine they pinned. Each entry is one
// engine over the whole dataset, so a registry query runs exactly as
// a direct engine call and returns the same result. The server routes
// queries by a "dataset" field and manages entries through the
// PUT/DELETE /v1/models admin API.
//
// Engines also keep a small result cache over resolved queries
// (WithResultCache to resize or disable): a repeated Find, FindTopK,
// FindMany, Stream or StreamTopK query against the same surrogate
// snapshot is answered without re-running the swarm. A stream served
// from the cache comes back finished, with EventDone as its only
// event. Every run that completes offers its Result to the cache,
// whichever entry point started it. A full cache evicts its least
// recently used entry, but only for an answer whose query has been
// looked up at least as often as that entry's (a TinyLFU-style
// admission test over decaying lookup counts), so one-off queries
// cannot flush popular answers. The cache clears on every train/load
// so no stale model's results are served.
//
// # Living data
//
// The paper's pipeline freezes the dataset at training time; Store
// lifts that restriction. NewStore wraps a seed Dataset as version 1
// of a versioned, append-capable collection: Store.Append commits a
// batch of rows and publishes an immutable Snapshot atomically, so
// readers pin a snapshot with one lock-free pointer load and are
// never blocked — or torn — by concurrent appends. Engine.SetDataset
// swaps the engine onto a new snapshot's data (keeping the trained
// surrogate, which still answers queries — it just drifts from the
// data), stamps the data version into SurrogateInfo.DataVersion and
// every result-cache key, and clears cached results exactly as a
// model swap does. Engine.ContinueTraining then extends the ensemble
// in place against the current data, all-or-nothing.
//
// Mined results over a store built from a base dataset plus appended
// batches are bit-identical to those over the equivalent flat
// dataset — a differential test and the FuzzAppendParity fuzz target
// hold the store to that contract.
//
// The registry automates the loop: entries created from a Spec with
// DriftThreshold carry a reservoir of sampled training queries, and
// Registry.Append (exposed as POST /v1/datasets/{name}/append)
// commits rows, swaps the new version into the entry's engine,
// replays the reservoir against the true evaluator to score drift, and —
// past the threshold — kicks a cancellable background retrain (25
// extra trees fitted to 256 fresh queries) that republishes through
// the same atomic hot swap, never dropping an in-flight query. ModelStatus, /v1/models and the
// surf_dataset_data_version / surf_dataset_drift_score /
// surf_dataset_retraining / surf_dataset_retrains_total metric
// families report the living state.
//
// # Machine-checked invariants
//
// The concurrency and determinism rules above are enforced by a
// custom analyzer suite in the lint module (lint/cmd/surf-lint, run
// by `make lint` and CI): contexts must flow into every cancellable
// call (ctxflow), atomic snapshot fields move only through their
// atomic method set (atomicsnap), code marked //surf:deterministic
// stays reproducible (detrain), server errors stay inside the JSON
// envelope (errenvelope), and metric labels stay bounded (obslabel).
// Deliberate exceptions are annotated in-tree as
// //lint:allow <analyzer>: <reason>; the README's "Correctness
// tooling" section documents each analyzer and its motivating bug.
package surf
