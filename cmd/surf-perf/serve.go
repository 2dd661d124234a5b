package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	surf "surf"
	"surf/registry"
	"surf/server"
)

// datasetName is the registry entry every serving workload queries.
const datasetName = "density"

// readyTimeout bounds one cold start of the serving stack.
const readyTimeout = 120 * time.Second

// probeQueries is how many queries the serving checks compare between
// HTTP, the engine and the event stream.
const probeQueries = 8

// stack is a server on loopback HTTP, with its registry in registry
// mode.
type stack struct {
	reg    *registry.Registry
	base   string
	cancel context.CancelFunc
	done   chan error
}

// serve runs srv on 127.0.0.1:0 until the stack is stopped.
func serve(ctx context.Context, srv *server.Server, reg *registry.Registry) (*stack, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	st := &stack{reg: reg, base: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { st.done <- srv.Serve(sctx, l) }()
	return st, nil
}

// startStack serves a fresh registry on 127.0.0.1:0, registers spec
// and waits until /readyz answers 200, returning the seconds from
// Register to ready: the CSV read, grid build, workload generation and
// training of a cold start.
func startStack(ctx context.Context, spec registry.Spec) (*stack, float64, error) {
	reg := registry.New(0)
	st, err := serve(ctx, server.NewRegistry(reg, datasetName), reg)
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	start := time.Now()
	if _, err := st.reg.Register(datasetName, spec); err != nil {
		return nil, 0, errors.Join(err, st.stop())
	}
	for {
		status, _, err := do(ctx, c, http.MethodGet, st.base+"/readyz", nil)
		if err == nil && status == http.StatusOK {
			return st, time.Since(start).Seconds(), nil
		}
		if ms, _ := st.reg.Status(datasetName); ms.State == "failed" || time.Since(start) > readyTimeout {
			return nil, 0, errors.Join(fmt.Errorf("registry never became ready: state %s %s", ms.State, ms.Err), st.stop())
		}
		select {
		case <-ctx.Done():
			return nil, 0, errors.Join(ctx.Err(), st.stop())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop shuts the server down and waits for it to return.
func (s *stack) stop() error {
	s.cancel()
	return <-s.done
}

// engine pins the entry and returns its engine and current data.
func (s *stack) engine(ctx context.Context) (*surf.Engine, *surf.Dataset, error) {
	h, err := s.reg.Acquire(ctx, datasetName)
	if err != nil {
		return nil, nil, err
	}
	defer h.Release()
	ds, _ := h.Store().View()
	return h.Engine(), ds, nil
}

// startServing writes the dataset as CSV (input generation, untimed),
// cold-starts the serving stack sc.Builds times and keeps the last;
// setup_s is the median start.
func (r *runner) startServing(ctx context.Context, driftReservoir int) (*stack, error) {
	path := filepath.Join(r.cfg.work, "data.csv")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = errors.Join(r.in.ds.WriteCSV(bw), bw.Flush(), f.Close())
	if err != nil {
		return nil, err
	}
	spec := registry.Spec{
		Data: path, FilterColumns: columns, Statistic: "count", UseGridIndex: true,
		Train: r.cfg.sc.TrainQueries, TrainSeed: trainSeed, DriftReservoir: driftReservoir,
	}
	setups := make([]float64, r.cfg.sc.Builds)
	var st *stack
	r.setup[0] = time.Now()
	for b := range setups {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, err
			}
			st = nil
		}
		runtime.GC()
		var err error
		if st, setups[b], err = startStack(ctx, spec); err != nil {
			return nil, err
		}
	}
	r.setup[1] = time.Now()
	r.metrics.set("setup_s", "s", median(setups))
	return st, nil
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

// do sends one request with an optional JSON body and returns the
// status and the whole response body.
func do(ctx context.Context, c *http.Client, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call sends a request that must answer 200 and decodes the body into
// out.
func call(ctx context.Context, c *http.Client, s *stack, path string, body, out any) error {
	status, data, err := do(ctx, c, http.MethodPost, s.base+path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// streamFind runs q over POST /v1/stream and reads the event feed to
// its end. first is the time to the first region event (to done when
// no incumbent stabilized), done the time to the done event.
func streamFind(ctx context.Context, c *http.Client, s *stack, q surf.Query) (first, done float64, res *surf.Result, err error) {
	b, err := json.Marshal(map[string]surf.Query{"q": q})
	if err != nil {
		return 0, 0, nil, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/stream", bytes.NewReader(b))
	if err != nil {
		return 0, 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, nil, fmt.Errorf("POST /v1/stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, 0, nil, fmt.Errorf("stream ended without a done event: %w", err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
			if event == "region" && first == 0 {
				first = sinceMs(start)
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			done = sinceMs(start)
			ev, err := surf.UnmarshalEvent([]byte(line[len("data: "):]))
			if err != nil {
				return 0, 0, nil, err
			}
			if first == 0 {
				first = done
			}
			_, err = io.Copy(io.Discard, br)
			return first, done, ev.(surf.EventDone).Result, err
		}
	}
}

// samples collects latencies from concurrent clients.
type samples struct {
	mu   sync.Mutex
	byOp map[string][]float64
}

func newSamples() *samples { return &samples{byOp: map[string][]float64{}} }

func (s *samples) add(op string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byOp[op] = append(s.byOp[op], v)
}

// findVia returns a find function that sends queries to st's /v1/find
// on one client.
func findVia(ctx context.Context, c *http.Client, st *stack) func(surf.Query) (*surf.Result, error) {
	return func(q surf.Query) (*surf.Result, error) {
		var res surf.Result
		if err := call(ctx, c, st, "/v1/find", q, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}
}

// runClients runs body on n goroutines, each with its own client, and
// returns the first error once all have finished.
func runClients(n int, body func(c *http.Client) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			errs[i] = body(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// mixedClients is http-mixed's client count: one closed-loop client per
// CPU the harness may use, at most two.
func mixedClients() int { return min(2, runtime.NumCPU()) }

// runHTTPMixed drives the deployment path: two closed-loop clients
// against a registry-mode server, the request mix of mixPattern over
// Zipf-popular query ids, so most finds are answered by the result
// cache while streams, findmany and the remaining finds mine.
func runHTTPMixed(ctx context.Context, r *runner) error {
	in, sc := r.in, r.cfg.sc
	st, err := r.startServing(ctx, 0)
	if err != nil {
		return err
	}
	defer st.stop()
	eng, ds, err := st.engine(ctx)
	if err != nil {
		return err
	}
	var rep *replica
	if r.tr != nil {
		if rep, err = newReplica(ctx, r.tr, eng, ds, sc.TrainQueries); err != nil {
			return err
		}
	}
	in.ds = nil // the server holds its own copy of the data
	r.calibrate(0)

	list := in.newMixedList()
	var taken atomic.Int64
	warm := func(c *http.Client) error {
		for taken.Add(1) <= int64(sc.WarmHTTP) {
			if _, err := r.mixedOp(ctx, c, st, list.take(), nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := runClients(mixedClients(), warm); err != nil {
		return err
	}

	got := newSamples()
	var finds atomic.Int64
	var attempted, failed atomic.Int64
	cacheBefore, err := st.reg.Status(datasetName)
	if err != nil {
		return err
	}
	w := r.newWindow()
	measure := func(c *http.Client) error {
		for !w.over(int(finds.Load())) {
			op := list.take()
			attempted.Add(1)
			ok, err := r.mixedOp(ctx, c, st, op, got)
			if err != nil {
				return err
			}
			if !ok {
				failed.Add(1)
			}
			if op.kind == opFind {
				finds.Add(1)
			}
		}
		return nil
	}
	if err := runClients(mixedClients(), measure); err != nil {
		return err
	}
	elapsed := r.windowEnd(w)
	r.calibrate(1)
	r.attempted, r.failed = int(attempted.Load()), int(failed.Load())
	cacheAfter, err := st.reg.Status(datasetName)
	if err != nil {
		return err
	}
	r.metrics.set("cache.hit_ratio", "ratio", hitRatio(cacheBefore.Cache, cacheAfter.Cache))

	c := newClient()
	defer c.CloseIdleConnections()
	probes, _, err := r.probeCompliance(kindSurrogate, findVia(ctx, c, st))
	if err != nil {
		return err
	}
	if err := r.checkServing(ctx, c, st, probes[:min(probeQueries, len(probes))]); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.traceServing(ctx, st, rep, kindSurrogate); err != nil {
			return err
		}
	}

	if err := r.latencySummary("find", got.byOp["find"]); err != nil && r.tr == nil {
		return err
	}
	r.metrics.set("throughput_qps", "1/s", float64(r.attempted-r.failed)/elapsed.Seconds())
	r.optionalPercentile("stream_first_region_p50_ms", got.byOp["stream_first"], 50)
	r.optionalPercentile("server.stream_done_p50_ms", got.byOp["stream_done"], 50)
	r.optionalPercentile("server.findmany_p50_ms", got.byOp["findmany"], 50)
	r.optionalPercentile("server.topk_p50_ms", got.byOp["topk"], 50)
	r.metrics.set("heap_live_mb", "MB", heapLiveMB())
	runtime.KeepAlive(st)
	return nil
}

// hitRatio is the result cache's hit share between two snapshots of
// its counters.
func hitRatio(before, after surf.CacheStats) float64 {
	hits := after.Hits - before.Hits
	return float64(hits) / float64(hits+after.Misses-before.Misses)
}

// mixedOp sends one http-mixed request, recording its latency into
// got when measuring (got non-nil). It reports false for a request the
// server failed or answered wrongly; err is only for a cancelled run.
func (r *runner) mixedOp(ctx context.Context, c *http.Client, st *stack, op mixedOp, got *samples) (bool, error) {
	start := time.Now()
	var err error
	switch op.kind {
	case opFind:
		var res surf.Result
		err = call(ctx, c, st, "/v1/find", r.in.zipfFind(op.ids[0]), &res)
	case opTopK:
		var res surf.Result
		err = call(ctx, c, st, "/v1/topk", r.in.zipfTopK(op.ids[0]), &res)
	case opFindMany:
		queries := []surf.Query{r.in.zipfFind(op.ids[0]), r.in.zipfFind(op.ids[1])}
		var res struct {
			Results []struct {
				Index  int          `json:"index"`
				Result *surf.Result `json:"result"`
				Error  string       `json:"error"`
			} `json:"results"`
		}
		err = call(ctx, c, st, "/v1/findmany", map[string]any{"queries": queries}, &res)
		if err == nil {
			seen := map[int]bool{}
			for _, mr := range res.Results {
				if mr.Error != "" || mr.Result == nil {
					err = fmt.Errorf("findmany query %d: %s", mr.Index, mr.Error)
				}
				seen[mr.Index] = true
			}
			if len(res.Results) != len(queries) || !seen[0] || !seen[1] {
				err = fmt.Errorf("findmany returned %d results for %d queries", len(res.Results), len(queries))
			}
		}
	case opStream:
		var first, done float64
		first, done, _, err = streamFind(ctx, c, st, r.in.zipfFind(op.ids[0]))
		if err == nil && got != nil {
			got.add("stream_first", first)
			got.add("stream_done", done)
		}
	}
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	lat := sinceMs(start)
	if err != nil {
		lat = math.Inf(1)
	}
	if got != nil {
		switch op.kind {
		case opFind:
			got.add("find", lat)
		case opTopK:
			got.add("topk", lat)
		case opFindMany:
			got.add("findmany", lat)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "request %d failed: %v\n", op.index, err)
	}
	return err == nil, nil
}

// timeHits sends each query to /v1/find twice and times the second
// round trip: a result-cache hit through the real server, that is
// body decode, middleware, cache lookup, encode and loopback. It sets
// server.hit_roundtrip_ms and returns the first answers.
func (r *runner) timeHits(ctx context.Context, c *http.Client, st *stack, queries []surf.Query) ([]*surf.Result, error) {
	find := findVia(ctx, c, st)
	answers := make([]*surf.Result, len(queries))
	var roundTrip []float64
	for i, q := range queries {
		var err error
		if answers[i], err = find(q); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := find(q); err != nil {
			return nil, err
		}
		roundTrip = append(roundTrip, sinceMs(start))
	}
	r.metrics.set("server.hit_roundtrip_ms", "ms", median(roundTrip))
	return answers, nil
}

// timeEngineHits serves eng alone on loopback and times cache-hit
// round trips of queries through it, for the in-process workloads,
// which send no traffic through the server.
func (r *runner) timeEngineHits(ctx context.Context, eng *surf.Engine, queries []surf.Query) error {
	st, err := serve(ctx, server.New(eng), nil)
	if err != nil {
		return err
	}
	c := newClient()
	_, err = r.timeHits(ctx, c, st, queries)
	c.CloseIdleConnections()
	return errors.Join(err, st.stop())
}

// checkServing compares, for each probe query, the /v1/find answer
// with the engine's own FindContext (a cache hit by then: its span is
// cache.hit) and with the done event of a /v1/stream run, ignoring
// elapsed time and the request id. It times the server's cache-hit
// round trip, and pinned Acquire calls time the registry.
func (r *runner) checkServing(ctx context.Context, c *http.Client, st *stack, probes []surf.Query) error {
	viaHTTP, err := r.timeHits(ctx, c, st, probes)
	if err != nil {
		return err
	}
	var acquire []float64
	for i, q := range probes {
		start := time.Now()
		h, err := st.reg.Acquire(ctx, datasetName)
		if err != nil {
			return err
		}
		acquire = append(acquire, 1000*sinceMs(start))
		id := r.tr.begin("cache.hit", 0, 0)
		direct, err := h.Engine().FindContext(ctx, q)
		r.tr.end(id, 1)
		h.Release()
		if err != nil {
			return err
		}
		r.check(sameResult(viaHTTP[i], direct), "probe %d: /v1/find differs from Engine.FindContext", i)
		_, _, streamed, err := streamFind(ctx, c, st, q)
		if err != nil {
			return err
		}
		r.check(sameResult(viaHTTP[i], streamed), "probe %d: /v1/stream done event differs from /v1/find", i)
	}
	r.metrics.set("registry.acquire_us", "us", median(acquire))
	return nil
}

// traceServing runs a serving workload's trace tail: replica queries
// of the workload's find shape against the entry's engine at its
// current data version, then the shared tail, then timed direct
// Registry.Append calls.
func (r *runner) traceServing(ctx context.Context, st *stack, rep *replica, kind findKind) error {
	eng, ds, err := st.engine(ctx)
	if err != nil {
		return err
	}
	if err := rep.setData(ds); err != nil {
		return err
	}
	queries := make([]surf.Query, r.cfg.sc.ReplicaQueries)
	var overhead []float64
	for i := range queries {
		queries[i] = r.in.find(kind, streamReplica, uint64(i))
		if _, err := r.tracedFind(ctx, rep, eng, i+1, queries[i], &overhead); err != nil {
			return err
		}
	}
	if err := r.traceTail(ctx, rep, eng, ds, queries[:min(streamPasses, len(queries))], overhead); err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < appendPasses; i++ {
		start := time.Now()
		if _, err := st.reg.Append(ctx, datasetName, r.in.appendBatch(1<<33+uint64(i))); err != nil {
			return err
		}
		appends = append(appends, sinceMs(start))
	}
	r.metrics.set("registry.append_ms", "ms", median(appends))
	return nil
}

// openLoop schedules requests at a fixed rate from start, whether or
// not earlier ones finished. Each request is timed from its due time,
// so a stall also counts against the requests it delayed, and how late
// each was sent measures the generator itself.
type openLoop struct {
	start time.Time
	rate  float64 // requests per second
}

func (o openLoop) due(k int) time.Time {
	return o.start.Add(time.Duration(float64(k) / o.rate * float64(time.Second)))
}

// times returns request k's latency from its due time to done and how
// late it was sent, in milliseconds.
func (o openLoop) times(k int, sent, done time.Time) (latency, late float64) {
	due := o.due(k)
	return ms(done.Sub(due)), ms(sent.Sub(due))
}

// appendResponse is the /v1/datasets/{name}/append answer.
type appendResponse struct {
	DataVersion uint64 `json:"data_version"`
	Rows        int    `json:"rows"`
}

// runLivingAppend drives writes beside reads: an open-loop appender
// posting AppendRows-row batches at AppendRate per second, timed from
// each batch's due time, next to one closed-loop reader sending
// use_true_function finds, so every read scans the growing data.
func runLivingAppend(ctx context.Context, r *runner) error {
	in, sc := r.in, r.cfg.sc
	st, err := r.startServing(ctx, 64)
	if err != nil {
		return err
	}
	defer st.stop()
	eng, ds, err := st.engine(ctx)
	if err != nil {
		return err
	}
	baseRows, baseVersion := ds.Len(), eng.DataVersion()
	var rep *replica
	if r.tr != nil {
		if rep, err = newReplica(ctx, r.tr, eng, ds, sc.TrainQueries); err != nil {
			return err
		}
	}
	in.ds = nil
	reader := newClient()
	defer reader.CloseIdleConnections()
	// The probes run on the base data, before any append, so that
	// compliance does not depend on how many appends a run commits.
	probes, _, err := r.probeCompliance(kindTrue, findVia(ctx, reader, st))
	if err != nil {
		return err
	}
	r.calibrate(0)
	for i := 0; i < sc.WarmLiving; i++ {
		var res surf.Result
		if err := call(ctx, reader, st, "/v1/find", in.find(kindTrue, streamWarm, uint64(i)), &res); err != nil {
			return err
		}
	}

	var reads, appends, late []float64
	var appendFailed int
	cacheBefore, err := st.reg.Status(datasetName)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	w := r.newWindow()
	appender := openLoop{start: w.start, rate: sc.AppendRate}
	committed := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(time.Until(appender.due(k))):
			}
			sent := time.Now()
			var res appendResponse
			err := call(ctx, c, st, "/v1/datasets/"+datasetName+"/append",
				map[string]any{"rows": in.appendBatch(uint64(k))}, &res)
			lat, lateness := appender.times(k, sent, time.Now())
			late = append(late, lateness)
			if err != nil {
				appendFailed++
				appends = append(appends, math.Inf(1))
				continue
			}
			appends = append(appends, lat)
			committed++
			r.check(res.DataVersion == baseVersion+uint64(committed), "append %d published data version %d, want %d",
				k, res.DataVersion, baseVersion+uint64(committed))
			r.check(res.Rows == baseRows+committed*sc.AppendRows, "append %d left %d rows, want %d",
				k, res.Rows, baseRows+committed*sc.AppendRows)
		}
	}()
	readFailed := 0
	for i := 0; !w.over(len(reads)); i++ {
		var res surf.Result
		start := time.Now()
		err := call(ctx, reader, st, "/v1/find", in.find(kindTrue, streamMeasure, uint64(i)), &res)
		if ctx.Err() != nil {
			break
		}
		if err != nil {
			readFailed++
			reads = append(reads, math.Inf(1))
			continue
		}
		reads = append(reads, sinceMs(start))
	}
	elapsed := r.windowEnd(w)
	close(stop)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	r.calibrate(1)
	r.attempted = len(reads) + len(appends)
	r.failed = readFailed + appendFailed
	status, err := st.reg.Status(datasetName)
	if err != nil {
		return err
	}
	r.check(status.Rows == baseRows+committed*sc.AppendRows, "after %d appends the entry holds %d rows, want %d",
		committed, status.Rows, baseRows+committed*sc.AppendRows)
	r.check(status.DataVersion == baseVersion+uint64(committed), "after %d appends the entry serves data version %d",
		committed, status.DataVersion)
	r.check(committed > 0, "no append was committed")
	r.metrics.set("cache.hit_ratio", "ratio", hitRatio(cacheBefore.Cache, status.Cache))

	if err := r.checkServing(ctx, reader, st, probes[:min(probeQueries, len(probes))]); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.traceServing(ctx, st, rep, kindTrue); err != nil {
			return err
		}
	}

	if err := r.latencySummary("find", reads); err != nil && r.tr == nil {
		return err
	}
	r.metrics.set("throughput_qps", "1/s", float64(len(reads)-readFailed)/elapsed.Seconds())
	r.optionalPercentile("append_p50_ms", appends, 50)
	r.optionalPercentile("append_p90_ms", appends, 90)
	maxLate := 0.0
	for _, l := range late {
		maxLate = math.Max(maxLate, l)
	}
	r.metrics.set("harness.append_late_max_ms", "ms", maxLate)
	r.metrics.set("heap_live_mb", "MB", heapLiveMB())
	runtime.KeepAlive(st)
	return nil
}
