package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	surf "surf"
)

// testEngine builds a small clustered dataset and trains a quick
// surrogate; with train=false the engine can still serve
// use_true_function queries. opts are the engine's options.
func testEngine(t testing.TB, train bool, opts ...surf.Option) *surf.Engine {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 3))
	n := 1500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if i%3 == 0 {
			xs[i] = 0.7 + rng.NormFloat64()*0.05
			ys[i] = 0.3 + rng.NormFloat64()*0.05
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
	}
	d, err := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := surf.Open(d, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if train {
		wl, err := eng.GenerateWorkload(300, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.TrainSurrogate(wl, surf.TrainOptions{Trees: 20}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// testServer mounts a Server on an httptest listener.
func testServer(t *testing.T, train bool, opts ...surf.Option) (*httptest.Server, *surf.Engine) {
	t.Helper()
	eng := testEngine(t, train, opts...)
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// smallQuery keeps swarm runs fast in tests.
var smallQuery = surf.Query{
	Threshold: 30, Above: true, Seed: 2,
	Glowworms: 20, Iterations: 15, MaxRegions: 4,
}

// postJSON posts v and returns the response.
func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeResponse decodes a JSON response body into v.
func decodeResponse(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

func TestFindEndpoint(t *testing.T) {
	ts, eng := testServer(t, true)
	resp := postJSON(t, ts.URL+"/v1/find", smallQuery)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var res surf.Result
	decodeResponse(t, resp, &res)

	want, err := eng.Find(smallQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != len(want.Regions) {
		t.Fatalf("HTTP mined %d regions, direct call %d", len(res.Regions), len(want.Regions))
	}
	for i := range want.Regions {
		if res.Regions[i].Estimate != want.Regions[i].Estimate {
			t.Errorf("region %d estimate %v over HTTP, %v direct", i, res.Regions[i].Estimate, want.Regions[i].Estimate)
		}
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts, _ := testServer(t, true)
	q := surf.TopKQuery{K: 3, Largest: true, Seed: 2, Glowworms: 20, Iterations: 15}
	resp := postJSON(t, ts.URL+"/v1/topk", q)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var res surf.Result
	decodeResponse(t, resp, &res)
	if len(res.Regions) == 0 || len(res.Regions) > 3 {
		t.Fatalf("top-3 returned %d regions", len(res.Regions))
	}
	for i, r := range res.Regions {
		if !r.Verified {
			t.Errorf("region %d unverified", i)
		}
	}
}

// TestErrorMapping drives each sentinel into its documented status.
func TestErrorMapping(t *testing.T) {
	ts, _ := testServer(t, false) // no surrogate

	t.Run("no surrogate → 409", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/find", smallQuery)
		var e errorBody
		decodeResponse(t, resp, &e)
		if resp.StatusCode != http.StatusConflict || e.Error.Code != "no_surrogate" {
			t.Fatalf("status %d code %q", resp.StatusCode, e.Error.Code)
		}
		if e.Error.Message == "" || e.Error.RequestID == "" {
			t.Fatalf("incomplete envelope: %+v", e)
		}
	})
	t.Run("bad query → 400", func(t *testing.T) {
		q := smallQuery
		q.MaxRegions = -1
		q.UseTrueFunction = true
		resp := postJSON(t, ts.URL+"/v1/find", q)
		var e errorBody
		decodeResponse(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "bad_query" {
			t.Fatalf("status %d code %q", resp.StatusCode, e.Error.Code)
		}
	})
	t.Run("oversized swarm → 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/find", "application/json",
			strings.NewReader(`{"threshold": 30, "above": true, "glowworms": 1099511627776}`))
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, resp, http.StatusBadRequest, "bad_query")
	})
	t.Run("oversized kde_sample → 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/find", "application/json",
			strings.NewReader(`{"threshold": 30, "above": true, "use_kde": true, "kde_sample": 2000000}`))
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, resp, http.StatusBadRequest, "bad_query")
	})
	t.Run("malformed body → 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/find", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("unknown field → 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/find", "application/json",
			strings.NewReader(`{"threshold": 1, "abvoe": true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("bad topk → 400", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/topk", surf.TopKQuery{K: 0})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	// A body or ?q= must hold exactly one JSON value: trailing data is
	// refused rather than silently ignored, trailing whitespace is not.
	// The query runs the true function, so it needs no surrogate.
	const trueQuery = `{"threshold": 30, "above": true, "use_true_function": true, "glowworms": 20, "iterations": 15, "seed": 1}`
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"second JSON value → 400", trueQuery + `{"max_regions": -1}`, http.StatusBadRequest, "bad_query"},
		{"trailing garbage → 400", trueQuery + ` garbage`, http.StatusBadRequest, "bad_query"},
		{"trailing whitespace → 200", trueQuery + "\n\t ", http.StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/find", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			wantStatus(t, resp, tc.status, tc.code)
		})
	}
	t.Run("stream q with trailing data → 400", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/stream?q=" + urlQueryEscape(trueQuery+"xyz"))
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, resp, http.StatusBadRequest, "bad_query")
	})
}

func TestFindManyEndpoint(t *testing.T) {
	ts, _ := testServer(t, true)
	queries := []surf.Query{smallQuery, {Threshold: -5, Above: false, Seed: 3, Glowworms: 20, Iterations: 10}, {Threshold: 1, MaxRegions: -3}}
	resp := postJSON(t, ts.URL+"/v1/findmany", map[string]any{"queries": queries})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Results []struct {
			Index  int          `json:"index"`
			Result *surf.Result `json:"result"`
			Error  string       `json:"error"`
			Code   string       `json:"code"`
		} `json:"results"`
	}
	decodeResponse(t, resp, &out)
	if len(out.Results) != 3 {
		t.Fatalf("%d results for 3 queries", len(out.Results))
	}
	seen := map[int]bool{}
	for _, r := range out.Results {
		seen[r.Index] = true
		if r.Index == 2 {
			if r.Code != "bad_query" {
				t.Errorf("invalid query reported code %q", r.Code)
			}
		} else if r.Error != "" {
			t.Errorf("query %d failed: %s", r.Index, r.Error)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("indices not unique: %v", seen)
	}

	// A findmany repeating the query a find just answered is served
	// from the result cache, as the scrape's hit counter shows.
	t.Run("findmany hits the cache a find filled", func(t *testing.T) {
		ts, _ := testServer(t, true)
		wantStatus(t, postJSON(t, ts.URL+"/v1/find", smallQuery), http.StatusOK, "")
		wantStatus(t, postJSON(t, ts.URL+"/v1/findmany", map[string]any{"queries": []surf.Query{smallQuery}}), http.StatusOK, "")
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		scrape := readBody(t, resp)
		if !slices.Contains(strings.Split(scrape, "\n"), "surf_result_cache_hits_total 1") {
			t.Fatalf("scrape lacks the line %q:\n%s", "surf_result_cache_hits_total 1", scrape)
		}
	})

	t.Run("empty batch → 400", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/findmany", map[string]any{"queries": []surf.Query{}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})

	// Regression: prediction-shape validation lives at the public
	// engine boundary (wrapped ErrDimMismatch), not in kernel panics —
	// so no findmany body, however malformed, may crash a serving
	// goroutine. A panic would tear down the connection (the client
	// sees a transport error) or surface as a 5xx; every body here must
	// produce an orderly 4xx envelope, and the server must keep
	// serving afterwards.
	t.Run("malformed bodies never panic the server", func(t *testing.T) {
		bodies := []string{
			`{not json`,
			`{"queries": 3}`,
			`{"queries": [7]}`,
			`{"queries": [{"threshold": "high"}]}`,
			`{"queries": [{"threshold": 1, "glowworms": -80, "iterations": -4, "max_regions": -1}]}`,
			`{"queries": [{"threshold": 1e308, "seed": 18446744073709551615}]}`,
		}
		for _, b := range bodies {
			resp, err := http.Post(ts.URL+"/v1/findmany", "application/json", strings.NewReader(b))
			if err != nil {
				t.Fatalf("body %q: transport error (handler panic?): %v", b, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("body %q: status %d", b, resp.StatusCode)
			}
		}
		resp := postJSON(t, ts.URL+"/v1/findmany", map[string]any{"queries": []surf.Query{smallQuery}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server unhealthy after malformed bodies: status %d", resp.StatusCode)
		}
	})
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off an SSE body until it ends or fn returns
// false.
func readSSE(t *testing.T, body io.Reader, fn func(sseEvent) bool) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.name != "" || ev.data != "" {
				if !fn(ev) {
					return
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

func TestStreamEndpoint(t *testing.T) {
	ts, _ := testServer(t, true)
	q, _ := json.Marshal(smallQuery)
	resp, err := http.Get(ts.URL + "/v1/stream?q=" + urlQueryEscape(string(q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var iterations, done int
	var final *surf.Result
	readSSE(t, resp.Body, func(ev sseEvent) bool {
		decoded, err := surf.UnmarshalEvent([]byte(ev.data))
		if err != nil {
			t.Fatalf("bad event payload %q: %v", ev.data, err)
		}
		switch d := decoded.(type) {
		case surf.EventIteration:
			iterations++
			if ev.name != "iteration" {
				t.Errorf("iteration payload under event name %q", ev.name)
			}
		case surf.EventDone:
			done++
			final = d.Result
		}
		return true
	})
	if iterations == 0 {
		t.Error("no iteration events")
	}
	if done != 1 || final == nil {
		t.Fatalf("done events = %d", done)
	}

	t.Run("missing query → 400", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("both q and topk → 400", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/stream?q={}&topk={}")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("unknown field → 400", func(t *testing.T) {
		// Same strictness as the POST endpoints: a typoed knob must
		// not silently stream a default-valued query.
		resp, err := http.Get(ts.URL + "/v1/stream?q=" + urlQueryEscape(`{"treshold": 500}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
}

func TestStreamTopKEndpoint(t *testing.T) {
	ts, _ := testServer(t, true)
	q, _ := json.Marshal(surf.TopKQuery{K: 2, Largest: true, Seed: 2, Glowworms: 20, Iterations: 10})
	resp, err := http.Get(ts.URL + "/v1/stream?topk=" + urlQueryEscape(string(q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var done int
	readSSE(t, resp.Body, func(ev sseEvent) bool {
		if ev.name == "done" {
			done++
		}
		return true
	})
	if done != 1 {
		t.Fatalf("done events = %d", done)
	}
}

// cacheHits reads surf_result_cache_hits_total off a /metrics scrape.
func cacheHits(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape := readBody(t, resp)
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, "surf_result_cache_hits_total "); ok {
			var n int
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("hit counter %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("scrape lacks surf_result_cache_hits_total:\n%s", scrape)
	return 0
}

// withoutElapsed re-encodes a Result JSON body with its wall time
// zeroed, so two answers compare byte for byte on everything else.
func withoutElapsed(t *testing.T, body []byte) string {
	t.Helper()
	var res surf.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode result %s: %v", body, err)
	}
	res.ElapsedSeconds = 0
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStreamServesCachedAnswer: a stream of a query a find or topk
// just answered is served from the result cache. It carries exactly
// one event, done, whose result is the batch body's answer, and the
// scrape counts one more cache hit.
func TestStreamServesCachedAnswer(t *testing.T) {
	tq := surf.TopKQuery{K: 2, Largest: true, Seed: 2, Glowworms: 20, Iterations: 10}
	q, _ := json.Marshal(smallQuery)
	topk, _ := json.Marshal(tq)
	tests := []struct {
		name   string
		path   string // the batch route that fills the cache
		query  any
		stream func(base string) (*http.Response, error)
	}{
		{"POST /v1/stream after /v1/find", "/v1/find", smallQuery, func(base string) (*http.Response, error) {
			return http.Post(base+"/v1/stream", "application/json", strings.NewReader(`{"q":`+string(q)+`}`))
		}},
		{"GET /v1/stream?topk= after /v1/topk", "/v1/topk", tq, func(base string) (*http.Response, error) {
			return http.Get(base + "/v1/stream?topk=" + urlQueryEscape(string(topk)))
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ts, _ := testServer(t, true)
			resp := postJSON(t, ts.URL+tt.path, tt.query)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tt.path, resp.StatusCode, body)
			}
			hits := cacheHits(t, ts.URL)

			resp, err := tt.stream(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("stream: status %d: %s", resp.StatusCode, b)
			}
			var events []sseEvent
			readSSE(t, resp.Body, func(ev sseEvent) bool {
				events = append(events, ev)
				return true
			})
			if len(events) != 1 || events[0].name != "done" {
				names := make([]string, len(events))
				for i, ev := range events {
					names[i] = ev.name
				}
				t.Fatalf("cached stream sent events %v, want only done", names)
			}
			var done struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal([]byte(events[0].data), &done); err != nil {
				t.Fatal(err)
			}
			if got, want := withoutElapsed(t, done.Result), withoutElapsed(t, []byte(body)); got != want {
				t.Fatalf("done result differs from the %s body\nstream: %s\nbatch:  %s", tt.path, got, want)
			}
			if got := cacheHits(t, ts.URL); got != hits+1 {
				t.Fatalf("surf_result_cache_hits_total went from %d to %d, want one more", hits, got)
			}
		})
	}
}

// TestStreamClientCancellation disconnects mid-stream and proves the
// mining goroutine (and the handler) wind down without a leak.
func TestStreamClientCancellation(t *testing.T) {
	ts, _ := testServer(t, true)
	client := ts.Client()
	baseline := runtime.NumGoroutine()

	// A long run so cancellation strikes mid-mining.
	long := smallQuery
	long.Iterations = 3000
	long.Glowworms = 60
	q, _ := json.Marshal(long)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream?q="+urlQueryEscape(string(q)), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a handful of events to prove the stream is live, then
	// hang up mid-run.
	events := 0
	readSSE(t, resp.Body, func(ev sseEvent) bool {
		events++
		return events < 5
	})
	cancel()
	resp.Body.Close()
	if events < 5 {
		t.Fatalf("stream delivered only %d events before cancellation", events)
	}

	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// waitForGoroutines retries until the goroutine count returns to the
// baseline (modulo runtime noise), failing after two seconds.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t, true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status    string   `json:"status"`
		Dims      int      `json:"dims"`
		Surrogate bool     `json:"surrogate"`
		Statistic string   `json:"statistic"`
		Filters   []string `json:"filter_columns"`
	}
	decodeResponse(t, resp, &body)
	if body.Status != "ok" || body.Dims != 2 || !body.Surrogate {
		t.Fatalf("healthz = %+v", body)
	}
	if body.Statistic != "count" || len(body.Filters) != 2 {
		t.Fatalf("healthz surrogate info = %+v", body)
	}

	bare, _ := testServer(t, false)
	resp, err = http.Get(bare.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeResponse(t, resp, &body)
	if body.Status != "ok" || body.Surrogate {
		t.Fatalf("surrogate-less healthz = %+v", body)
	}
}

// TestGracefulShutdown serves on a real listener, cancels the serve
// context and expects a clean wind-down: Serve returns nil and the
// port closes.
func TestGracefulShutdown(t *testing.T) {
	eng := testEngine(t, true)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- New(eng).Serve(ctx, l) }()

	// The server answers while up.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("port still accepting connections after shutdown")
	}
}

// urlQueryEscape is a minimal query-string escaper for test URLs.
func urlQueryEscape(s string) string {
	r := strings.NewReplacer("{", "%7B", "}", "%7D", `"`, "%22", " ", "%20", "+", "%2B", "#", "%23", "&", "%26")
	return r.Replace(s)
}

// TestStreamShutdownMidFlight cancels the serve context while a
// stream is in flight: the in-flight response must terminate and
// Serve must still return promptly.
func TestStreamShutdownMidFlight(t *testing.T) {
	eng := testEngine(t, true)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- New(eng).Serve(ctx, l) }()

	long := smallQuery
	long.Iterations = 3000
	q, _ := json.Marshal(long)
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/stream?q=%s", l.Addr(), urlQueryEscape(string(q))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Confirm the stream is flowing, then pull the rug.
	events := 0
	readSSE(t, resp.Body, func(sseEvent) bool {
		events++
		if events == 3 {
			cancel()
		}
		return events < 1000 // keep reading until the server hangs up
	})
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return; in-flight stream blocked shutdown")
	}
}

// BenchmarkFindHit times a served result-cache hit: one POST /v1/find
// through Server.Handler() on a ResponseRecorder, covering the
// middleware, the body decode, acquire, the cache hit and the
// answer's encode.
func BenchmarkFindHit(b *testing.B) {
	eng := testEngine(b, true)
	h := New(eng).Handler()
	body, err := json.Marshal(smallQuery)
	if err != nil {
		b.Fatal(err)
	}
	find := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/find", bytes.NewReader(body)))
		return rec
	}
	if rec := find(); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	hits := eng.CacheStats().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		find()
	}
	b.StopTimer()
	if n := eng.CacheStats().Hits - hits; n != uint64(b.N) {
		b.Fatalf("%d of %d finds hit the cache", n, b.N)
	}
}
