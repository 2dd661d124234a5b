package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans of one
// request share Req; Parent is the enclosing span's ID (0 at the
// root). Work counts the units the call processed where that is
// meaningful (rows for kernel calls), else 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int    `json:"work,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
// Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID; 0 when t is nil.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, recording work units processed.
func (t *tracer) end(id, work int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Work = now, work
}

// named returns the closed spans called name, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus
// the durations of its direct children — the time the layer itself
// spent. Children of one span run on its goroutine, so they never
// overlap.
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s.dur()-child[s.ID])
		}
	}
	return out
}

// write stores the spans as trace.json: {"epoch": RFC 3339 time,
// "spans": [...]}, times in nanoseconds since the epoch.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durationsMs maps spans to their durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i := range spans {
		out[i] = ms(spans[i].dur())
	}
	return out
}
