package surf

import (
	"context"
	"errors"
	"iter"
	"math"
	"runtime"
	"sync"
)

// Stream delivers one query's results progressively: EventIteration
// telemetry every optimizer iteration, EventRegion incumbents as
// swarm clusters stabilize, and a terminal EventDone carrying the
// same Result the batch call returns — Find and FindTopK are thin
// consumers of this stream, so the two forms share one execution
// path and produce identical results.
//
// Consume a stream with Events (range-over-func, closes itself),
// with Next/Close (pull), or with Result (drain to completion). Stop
// early by breaking out of Events, calling Close, or cancelling the
// context passed to Engine.Stream — all three release the mining
// goroutine within one swarm iteration. A stream that is neither
// drained nor closed pins its mining goroutine; always finish with
// Result, exhaust Events, or call Close. A Stream is single-use;
// methods may be called from multiple goroutines but events are
// delivered to whichever consumer receives first.
type Stream struct {
	cancel context.CancelFunc
	events chan Event

	mu  sync.Mutex
	res *Result
	err error
}

// streamBuffer decouples the mining goroutine from the consumer for
// bursts (e.g. several regions stabilizing in one sweep) without
// letting an abandoned stream accumulate a whole run's telemetry.
const streamBuffer = 16

// newStream launches run on its own goroutine and returns the stream
// it feeds. run receives an emit callback that offers every event to
// the consumer and reports false once the consumer is gone; the
// events it emits as EventRegion are collected so a cancelled run can
// still surface the incumbents found so far. A run that succeeds puts
// its Result in cache under key before the stream publishes it — the
// one place the result cache is filled, whichever entry point started
// the run — so a repeat of the query through any entry point is
// served from the cache (see launch).
func newStream(ctx context.Context, cache *resultCache, key resultKey, run func(ctx context.Context, emit func(Event) bool) (*Result, error)) *Stream {
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{cancel: cancel, events: make(chan Event, streamBuffer)}
	go func() {
		// Release the derived context once the run is over, whether
		// or not anyone calls Close — a drained stream must not stay
		// registered as a child of a long-lived parent context.
		defer cancel()
		var partial []Region
		res, err := run(sctx, func(ev Event) bool {
			if r, ok := ev.(EventRegion); ok {
				partial = append(partial, r.Region)
			}
			return s.emit(sctx, ev)
		})
		if err != nil {
			// Surface what the run discovered before it was stopped:
			// the incumbents delivered so far, with the run-level
			// figures unknown.
			res = &Result{
				Regions:               partial,
				ValidParticleFraction: math.NaN(),
				ComplianceRate:        math.NaN(),
			}
		} else {
			cache.put(key, res)
		}
		s.mu.Lock()
		s.res, s.err = res, err
		s.mu.Unlock()
		if err == nil {
			s.emit(sctx, EventDone{Result: res})
		}
		close(s.events)
	}()
	return s
}

// doneStream returns a stream that has already finished with res, the
// form a result-cache hit takes: its only event is EventDone carrying
// res, Result returns the same pointer, and there is no run to stop.
func doneStream(res *Result) *Stream {
	s := &Stream{cancel: func() {}, events: make(chan Event, 1), res: res}
	s.events <- EventDone{Result: res}
	close(s.events)
	return s
}

// emit offers ev to the consumer, giving up once the stream's context
// is cancelled.
func (s *Stream) emit(ctx context.Context, ev Event) bool {
	select {
	case s.events <- ev:
		return true
	case <-ctx.Done():
		return false
	}
}

// ErrStreamDone is returned by Stream.Next once the stream completed
// successfully and its terminal EventDone has been delivered: the
// stream is exhausted, not broken. A stream stopped early — by Close
// or by cancelling its context — reports the run's error (typically
// context.Canceled) from Next instead.
var ErrStreamDone = errors.New("surf: stream done")

// Next blocks for the next event. After EventDone it returns
// ErrStreamDone; if the run failed or was stopped early — including
// via Close or cancellation of the stream's context — it returns the
// run's error. Either way, Result is then available.
func (s *Stream) Next() (Event, error) {
	ev, ok := <-s.events
	if !ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.err != nil {
			return nil, s.err
		}
		return nil, ErrStreamDone
	}
	return ev, nil
}

// Events returns a single-use iterator over the stream. It yields
// (event, nil) for each event and, if the run fails, a final
// (nil, error); breaking out of the loop closes the stream and stops
// the mining goroutine. Exhausting the loop leaves Result available.
func (s *Stream) Events() iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		defer s.Close()
		for {
			ev, err := s.Next()
			if err != nil {
				if !errors.Is(err, ErrStreamDone) {
					yield(nil, err)
				}
				return
			}
			if !yield(ev, nil) {
				return
			}
		}
	}
}

// Close stops the stream early and waits for the mining goroutine to
// exit, discarding undelivered events. It is idempotent and safe
// after normal completion. After Close, Result returns the incumbent
// regions delivered before the stop alongside the run's error.
func (s *Stream) Close() {
	s.cancel()
	for range s.events { // drain until the producer closes the channel
	}
}

// Result drains the stream to completion and returns the final
// Result — byte-for-byte the one EventDone carried, and identical to
// what the equivalent Find call returns. If the run failed or the
// stream was closed early it returns the partial result (the
// incumbent regions delivered so far, with ValidParticleFraction and
// ComplianceRate NaN) together with the error.
func (s *Stream) Result() (*Result, error) {
	for range s.events {
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.err
}

// Stream starts the query and returns its progressive result stream.
// The query runs against the engine's current surrogate snapshot on
// a dedicated goroutine; cancel ctx (or Close the stream) to stop it
// early. A query the result cache already answers under that snapshot
// does not run at all: its stream comes back finished, with a private
// copy of the cached Result as its only event (EventDone) — no
// telemetry and no incumbents. A stream that mines and completes
// offers its Result to the cache, so later finds and streams of the
// same query can be served from it.
func (e *Engine) Stream(ctx context.Context, q Query) (*Stream, error) {
	return launch(ctx, e, e.surrogate.Load(), q, true)
}

// StreamTopK starts a top-k query and returns its progressive result
// stream. Top-k regions only materialize in the end-of-run swarm
// clustering, so the stream carries EventIteration telemetry and the
// terminal EventDone but no EventRegion incumbents. As with Stream, a
// query the result cache answers streams only its EventDone.
func (e *Engine) StreamTopK(ctx context.Context, q TopKQuery) (*Stream, error) {
	return launch(ctx, e, e.surrogate.Load(), q, true)
}

// MultiResult is one query's outcome in a FindMany run.
type MultiResult struct {
	// Index is the query's position in the input slice.
	Index int
	// Result is the query's outcome. On a per-query error it is the
	// partial result (possibly with zero regions); on a validation
	// error it is nil.
	Result *Result
	// Err is the per-query failure: validation, a missing surrogate,
	// or cancellation.
	Err error
}

// FindMany executes several queries against one pinned surrogate
// snapshot, sharing a worker pool of min(GOMAXPROCS, len(queries))
// goroutines, and yields each query's result as it finishes —
// completion order, not input order (MultiResult.Index recovers the
// input position). All queries see the same compiled-model snapshot
// even if a retrain swaps the engine's surrogate mid-run. Breaking
// out of the iteration cancels the remaining queries and waits for
// the pool to drain; cancelling ctx does the same, with the
// already-started queries reporting the context error. Each query is
// served from the result cache when it can be, as Find would be.
func (e *Engine) FindMany(ctx context.Context, queries []Query) iter.Seq[MultiResult] {
	snap := e.surrogate.Load()
	return func(yield func(MultiResult) bool) {
		if len(queries) == 0 {
			return
		}
		mctx, cancel := context.WithCancel(ctx)
		defer cancel()
		workers := min(len(queries), runtime.GOMAXPROCS(0))
		idx := make(chan int)
		out := make(chan MultiResult)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					// The same launch as FindContext under the one
					// pinned snapshot, but a failed run keeps the
					// stream's partial result, so a cancelled query
					// still surfaces it alongside the error. Nobody
					// consumes the events, so the run skips them.
					res, err := drain(launch(mctx, e, snap, queries[i], false))
					// The send is unconditional: every started query
					// reports in, even after cancellation (the
					// iterator drains out until it closes, so this
					// can never block forever).
					out <- MultiResult{Index: i, Result: res, Err: err}
				}
			}()
		}
		go func() {
			defer close(idx)
			for i := range queries {
				select {
				case idx <- i:
				case <-mctx.Done():
					return
				}
			}
		}()
		go func() {
			wg.Wait()
			close(out)
		}()
		// On early exit, stop the pool and wait for it to wind down so
		// no worker goroutine outlives the iteration.
		defer func() {
			cancel()
			for range out {
			}
		}()
		for r := range out {
			if !yield(r) {
				return
			}
		}
	}
}
