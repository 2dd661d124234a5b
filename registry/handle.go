package registry

import (
	"sync/atomic"

	surf "surf"
)

// Handle is a pin on one entry's engine, returned by Acquire. Queries
// run on Engine directly. The pinned engine set is immutable: a hot
// swap or eviction concurrent with the handle's queries installs a new
// set without touching this one, so every query through one handle
// sees one model and one dataset lineage.
//
// Callers must Release the handle when the request completes (after a
// returned Stream is drained or closed); until then the entry counts
// as busy and is never evicted.
type Handle struct {
	r        *Registry
	e        *entry
	set      *engineSet
	released atomic.Bool
}

// Release unpins the engine set, making the entry evictable again once
// its in-flight count drains. Idempotent.
func (h *Handle) Release() {
	if h.released.CompareAndSwap(false, true) {
		h.r.release(h.e)
	}
}

// Version reports the entry version the handle pinned.
func (h *Handle) Version() int { return h.set.version }

// Engine returns the entry's engine.
func (h *Handle) Engine() *surf.Engine { return h.set.engine }
