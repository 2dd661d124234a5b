package dataset

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ErrEmptyAppend reports an append batch with no rows.
var ErrEmptyAppend = errors.New("dataset: empty append batch")

// Store is a versioned, append-capable collection built on top of the
// immutable Dataset. It resolves the tension between the paper's
// frozen-data pipeline and living deployments: writers append row
// batches through the store, readers keep operating on immutable
// Snapshot views they pinned, and the two never synchronize.
//
// Concurrency contract:
//
//   - The read path is lock-free. Snapshot is a single atomic pointer
//     load; the Dataset inside a snapshot never changes after publish,
//     so LinearScan/GridIndex, training and verification all
//     work on a pinned snapshot exactly as they do on a plain Dataset.
//   - Appends are serialized by an internal mutex that readers never
//     touch. Each batch extends the store's chunked backing columns —
//     rows land in spare segment capacity when available (the new
//     indices are invisible to every published view, whose length and
//     capacity are clamped to the rows committed at publish time) and
//     into a doubling-growth reallocation otherwise, so appending is
//     amortized O(1) per row and version k+1 shares column storage
//     with version k instead of copying it.
type Store struct {
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]

	names []string
	// buf holds the mutable backing columns. Only the committed prefix
	// of each column is ever published; indices past it are writable
	// scratch no reader can observe (published views are capacity-
	// clamped), which is what makes in-place appends race-free.
	buf [][]float64
	// segments counts committed append batches since the seed.
	segments int
}

// Snapshot is one immutable published version of a Store: a frozen
// Dataset plus the version counter that stamps caches, SurrogateInfo
// and metrics. Snapshots are safe to hold indefinitely; appends after
// the pin never alter what a snapshot's readers see.
type Snapshot struct {
	ds       *Dataset
	version  uint64
	segments int
}

// Data returns the snapshot's immutable dataset view.
func (s *Snapshot) Data() *Dataset { return s.ds }

// Version returns the snapshot's data version. The seed dataset is
// version 1; every committed append batch increments it.
func (s *Snapshot) Version() uint64 { return s.version }

// Rows returns the number of rows visible in this snapshot.
func (s *Snapshot) Rows() int { return s.ds.Len() }

// Segments returns how many append batches this snapshot folds in on
// top of the seed dataset.
func (s *Snapshot) Segments() int { return s.segments }

// NewStore wraps a seed dataset as version 1 of a living store. The
// seed's columns are adopted capacity-clamped, not copied: the store
// never writes into memory the caller may still reference, and the
// caller must not modify the columns it handed over (the same
// ownership transfer New documents).
func NewStore(seed *Dataset) *Store {
	w := seed.NumCols()
	buf := make([][]float64, w)
	for c := 0; c < w; c++ {
		buf[c] = seed.cols[c][:seed.n:seed.n]
	}
	st := &Store{names: seed.Names(), buf: buf}
	views := make([][]float64, w)
	copy(views, buf)
	ds, err := New(st.names, views)
	if err != nil {
		// Unreachable: the seed already passed New's validation.
		panic(err)
	}
	st.cur.Store(&Snapshot{ds: ds, version: 1})
	return st
}

// Snapshot returns the current published version. Lock-free; safe to
// call concurrently with Append.
func (s *Store) Snapshot() *Snapshot { return s.cur.Load() }

// Append commits one batch of rows (each in Names() order, full
// width) and publishes the next version atomically. It returns the
// new snapshot; concurrent readers holding older snapshots are
// unaffected. The batch is validated before any state changes, so a
// failed Append leaves the store at its prior version.
func (s *Store) Append(rows [][]float64) (*Snapshot, error) {
	if len(rows) == 0 {
		return nil, ErrEmptyAppend
	}
	w := len(s.names)
	for i, r := range rows {
		if len(r) != w {
			return nil, fmt.Errorf("dataset: append row %d has %d values, want %d", i, len(r), w)
		}
		for c, v := range r {
			// Non-finite values would poison domain derivation and every
			// statistic downstream; reject them before any state changes.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: append row %d column %q is %v", i, s.names[c], v)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	n, k := cur.ds.n, len(rows)
	for c := 0; c < w; c++ {
		col := s.buf[c]
		if cap(col)-n < k {
			grown := make([]float64, n, growCap(cap(col), n+k))
			copy(grown, col[:n])
			col = grown
		}
		col = col[:n+k]
		for i, r := range rows {
			col[n+i] = r[c]
		}
		s.buf[c] = col
	}
	views := make([][]float64, w)
	for c := range views {
		views[c] = s.buf[c][: n+k : n+k]
	}
	ds, err := New(s.names, views)
	if err != nil {
		// Unreachable: shape and names were validated above.
		panic(err)
	}
	s.segments++
	next := &Snapshot{ds: ds, version: cur.version + 1, segments: s.segments}
	s.cur.Store(next)
	return next, nil
}

// growCap picks the next backing-array capacity: double the current
// chunk (with a small floor) but never less than the immediate need.
func growCap(have, need int) int {
	c := have * 2
	if c < 64 {
		c = 64
	}
	if c < need {
		c = need
	}
	return c
}
