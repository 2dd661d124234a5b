// Package registry is the multi-dataset catalog behind a surf serving
// process: a concurrency-safe mapping from dataset names to versioned
// engine entries, each described by a Spec (dataset CSV, region spec,
// surrogate artifact or startup-training budget) and materialized
// lazily on first request.
//
// # Lifecycle
//
// Register records or replaces a spec and bumps the entry's version;
// nothing is loaded until the first Acquire. Acquire resolves a name
// to a *Handle pinning the entry's current engine, loading it first if
// necessary (concurrent acquirers of a cold entry share one load).
// Loaded entries live in an LRU; when more than Capacity entries are
// loaded, the least recently used idle entry is evicted back to the
// unloaded state — an entry with in-flight queries is never evicted,
// so the loaded count can temporarily exceed the capacity rather than
// break a running query. Remove deletes an entry.
//
// # Hot swap
//
// Register on an existing name is the hot-swap path (the HTTP layer's
// PUT /v1/models/{name}): the spec is replaced, the version bumped and
// the loaded engine set detached atomically under the registry lock —
// the same swap discipline as the engine's surrogate snapshots. A
// request that acquired a handle before the swap keeps the engine set
// it pinned until it releases; a request that acquires after sees the
// new version, lazily loaded. No request ever observes a torn state,
// and none is dropped. The new spec replaces the old one whole: the
// entry runs exactly what Register was given, so a swap that changes
// only the artifact still carries the data path, columns and every
// other field it wants kept. A swap that keeps the data path keeps the
// entry's appended rows; one that changes it starts a fresh store.
//
// # Handles
//
// An entry is one engine over its whole dataset. A Handle is a pin on
// that engine: callers query Handle.Engine directly — FindContext,
// FindTopKContext, FindMany, Stream, StreamTopK — so a registry query
// runs exactly as a direct engine call, with the engine's own result
// cache, and answers the same in every deployment mode. The pin only
// decides lifetime: the entry is never evicted while a handle is
// unreleased, and a hot swap leaves the pinned engine untouched.
package registry
