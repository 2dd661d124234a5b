package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	surf "surf"
	"surf/registry"
)

// readBody drains and closes a response body.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRequestIDPropagation: every JSON route carries the request ID in
// the X-Request-Id header and the top-level request_id body field, a
// well-formed client-sent ID is honored, and a hostile one is
// replaced rather than echoed.
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := testServer(t, true)

	jsonRoutes := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/v1/find", `{"threshold":30,"above":true,"seed":2,"glowworms":20,"iterations":10,"max_regions":2}`},
		{http.MethodPost, "/v1/findmany", `{"queries":[{"threshold":30,"above":true,"seed":2,"glowworms":20,"iterations":10}]}`},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/readyz", ""},
		{http.MethodPost, "/v1/topk", `{"k":1,"largest":true,"seed":2,"glowworms":20,"iterations":10}`},
		{http.MethodGet, "/v1/models", ""}, // error path: no registry
	}
	for _, rt := range jsonRoutes {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader(rt.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatalf("%s %s: no X-Request-Id header", rt.method, rt.path)
		}
		var body struct {
			RequestID string `json:"request_id"`
		}
		raw := readBody(t, resp)
		if err := json.Unmarshal([]byte(raw), &body); err != nil {
			t.Fatalf("%s %s: %v in %q", rt.method, rt.path, err, raw)
		}
		if body.RequestID != id {
			t.Fatalf("%s %s: body request_id %q, header %q", rt.method, rt.path, body.RequestID, id)
		}
	}

	t.Run("client ID honored", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-Id", "trace-me.42")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw := readBody(t, resp)
		if resp.Header.Get("X-Request-Id") != "trace-me.42" {
			t.Fatalf("client ID not echoed: %q", resp.Header.Get("X-Request-Id"))
		}
		if !strings.Contains(raw, `"request_id":"trace-me.42"`) {
			t.Fatalf("client ID not in body: %s", raw)
		}
	})
	t.Run("hostile ID replaced", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-Id", `evil"id`+strings.Repeat("x", 100))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" || strings.Contains(id, "evil") {
			t.Fatalf("hostile ID echoed or missing: %q", id)
		}
	})
}

// TestErrorEnvelopeGolden asserts the unified envelope shape on an
// error from every route family.
func TestErrorEnvelopeGolden(t *testing.T) {
	ts, _ := testServer(t, false) // no surrogate → query routes fail

	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodPost, "/v1/find", `{"threshold":1,"above":true}`, http.StatusConflict, "no_surrogate"},
		{http.MethodPost, "/v1/topk", `{"k":0}`, http.StatusBadRequest, "bad_query"},
		{http.MethodPost, "/v1/findmany", `{"queries":[]}`, http.StatusBadRequest, "bad_query"},
		{http.MethodGet, "/v1/stream", "", http.StatusBadRequest, "bad_query"},
		{http.MethodPost, "/v1/stream", `{}`, http.StatusBadRequest, "bad_query"},
		{http.MethodGet, "/v1/models", "", http.StatusNotFound, "no_registry"},
		{http.MethodGet, "/v1/models/x", "", http.StatusNotFound, "no_registry"},
		{http.MethodPut, "/v1/models/x", `{}`, http.StatusNotFound, "no_registry"},
		{http.MethodDelete, "/v1/models/x", "", http.StatusNotFound, "no_registry"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw := readBody(t, resp)
		if resp.StatusCode != c.status {
			t.Fatalf("%s %s: status %d, want %d: %s", c.method, c.path, resp.StatusCode, c.status, raw)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(raw), &eb); err != nil {
			t.Fatalf("%s %s: %v in %q", c.method, c.path, err, raw)
		}
		if eb.Error.Code != c.code {
			t.Errorf("%s %s: code %q, want %q", c.method, c.path, eb.Error.Code, c.code)
		}
		if eb.Error.Message == "" {
			t.Errorf("%s %s: empty message", c.method, c.path)
		}
		if eb.Error.RequestID != resp.Header.Get("X-Request-Id") {
			t.Errorf("%s %s: envelope request_id %q, header %q",
				c.method, c.path, eb.Error.RequestID, resp.Header.Get("X-Request-Id"))
		}
	}
}

// TestMetricsEndpoint drives traffic and asserts the scrape carries
// per-route counters and histograms, the cache counters, (through a
// repeated query) a cache hit, (through a one-off query on a full
// one-entry cache) a rejection, and the inference kernel's families.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t, true, surf.WithResultCache(1))
	oneOff := smallQuery
	oneOff.Seed++
	// The second query is a cache hit; the third, looked up once, may
	// not evict the first, looked up twice.
	for _, q := range []surf.Query{smallQuery, smallQuery, oneOff} {
		resp := postJSON(t, ts.URL+"/v1/find", q)
		readBody(t, resp)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := readBody(t, resp)
	for _, want := range append([]string{
		`surf_http_requests_total{route="POST /v1/find",code="2xx"} 3`,
		`surf_http_request_duration_seconds_bucket{route="POST /v1/find",le="+Inf"} 3`,
		`surf_http_request_duration_seconds_count{route="POST /v1/find"} 3`,
		`surf_http_response_bytes_total{route="POST /v1/find"}`,
		`surf_http_in_flight_requests`,
		`surf_result_cache_hits_total 1`,
		`surf_result_cache_misses_total 2`,
		`surf_result_cache_rejected_total 1`,
		"# TYPE surf_result_cache_rejected_total counter",
		"# TYPE surf_http_request_duration_seconds histogram",
	}, kernelExposition...) {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}
}

// kernelExposition is what every server's scrape must carry for the
// inference kernel's process-wide counters: each family's help and
// type lines and its one kernel="scalar" series.
var kernelExposition = []string{
	"# HELP surf_kernel_rows_predicted_total Rows predicted by the inference kernel.\n",
	"# TYPE surf_kernel_rows_predicted_total counter\n",
	`surf_kernel_rows_predicted_total{kernel="scalar"} `,
	"# HELP surf_kernel_batches_total Prediction calls (batch or single-row) into the inference kernel.\n",
	"# TYPE surf_kernel_batches_total counter\n",
	`surf_kernel_batches_total{kernel="scalar"} `,
	"# HELP surf_kernel_nanoseconds_total Wall nanoseconds spent inside the inference kernel.\n",
	"# TYPE surf_kernel_nanoseconds_total counter\n",
	`surf_kernel_nanoseconds_total{kernel="scalar"} `,
}

// TestMetricsRegistryMode asserts per-dataset state and cache series
// appear for a registry server.
func TestMetricsRegistryMode(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)
	resp := postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "alpha"))
	readBody(t, resp)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readBody(t, mresp)
	for _, want := range append([]string{
		`surf_dataset_state{dataset="alpha",state="ready"} 1`,
		`surf_dataset_state{dataset="beta",state="unloaded"} 1`,
		`surf_dataset_version{dataset="alpha"} 1`,
		`surf_dataset_rows{dataset="alpha"}`,
		`surf_dataset_load_seconds{dataset="alpha"}`,
		`surf_result_cache_misses_total{dataset="alpha"} 1`,
		`surf_result_cache_rejected_total{dataset="alpha"} 0`,
	}, kernelExposition...) {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}
}

// TestMetricsScrapeUnderLoad hammers query and scrape paths
// concurrently; under -race this is the data-race proof for the whole
// instrumentation chain.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	ts, _ := testServer(t, true)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				q := smallQuery
				q.Seed = uint64(w*100 + i) // distinct seeds defeat the cache
				resp := postJSON(t, ts.URL+"/v1/find", q)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mresp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, mresp.Body)
				mresp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readBody(t, resp)
	if !strings.Contains(out, `surf_http_requests_total{route="POST /v1/find",code="2xx"} 20`) {
		t.Fatalf("scrape did not account for all requests:\n%s", out)
	}
}

// nopWriter is the cheapest possible ResponseWriter, so the
// allocation benchmark measures the middleware, not the sink.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestObsMiddlewareZeroAlloc pins the acceptance criterion: the
// metrics middleware adds zero heap allocations per request on the
// hot path.
func TestObsMiddlewareZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := newServerMetrics(nil, nil)
	h := m.withObs(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/find", nil)
	req.Pattern = "POST /v1/find" // what the mux stamps after routing
	w := nopWriter{h: make(http.Header)}
	if n := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); n != 0 {
		t.Fatalf("metrics middleware allocates %.2f per request, want 0", n)
	}
}

func BenchmarkObsMiddlewareAllocs(b *testing.B) {
	m := newServerMetrics(nil, nil)
	h := m.withObs(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/find", nil)
	req.Pattern = "POST /v1/find"
	w := nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// TestMiddlewareStatusCapture: the recorder attributes each response
// to its status class, implicit 200s included, and unmatched routes
// land on "other".
func TestMiddlewareStatusCapture(t *testing.T) {
	m := newServerMetrics(nil, nil)
	cases := []struct {
		handler http.HandlerFunc
		class   string
	}{
		{func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotFound) }, "4xx"},
		{func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "hi") }, "2xx"}, // implicit 200
		{func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(499) }, "4xx"},
		{func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) }, "5xx"},
	}
	for i, c := range cases {
		h := m.withObs(c.handler)
		req := httptest.NewRequest(http.MethodPost, "/v1/find", nil)
		req.Pattern = "POST /v1/find"
		before := counterValue(m, "POST /v1/find", c.class)
		h.ServeHTTP(httptest.NewRecorder(), req)
		if got := counterValue(m, "POST /v1/find", c.class); got != before+1 {
			t.Errorf("case %d: class %s count %d, want %d", i, c.class, got, before+1)
		}
	}

	// Unmatched pattern → fallback route.
	h := m.withObs(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	req := httptest.NewRequest(http.MethodGet, "/nope", nil) // Pattern stays ""
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got := m.fallback.requests[classIndex(404)].Value(); got != 1 {
		t.Errorf("fallback 4xx count %d, want 1", got)
	}
}

func counterValue(m *serverMetrics, route, class string) uint64 {
	for i, c := range statusClasses {
		if c == class {
			return m.route(route).requests[i].Value()
		}
	}
	return 0
}

// TestMiddlewareHistogramBuckets: a handler that sleeps lands in a
// bucket consistent with its duration — the latency histogram really
// measures wall time.
func TestMiddlewareHistogramBuckets(t *testing.T) {
	m := newServerMetrics(nil, nil)
	h := m.withObs(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/find", nil)
	req.Pattern = "POST /v1/find"
	h.ServeHTTP(httptest.NewRecorder(), req)
	hist := m.route("POST /v1/find").duration
	if hist.Count() != 1 {
		t.Fatalf("observations = %d, want 1", hist.Count())
	}
	if sum := hist.Sum(); sum < 0.020 || sum > 5 {
		t.Fatalf("recorded duration %vs, want >= 20ms", sum)
	}
}

// TestStreamPostMatchesGet differential-tests the two stream forms:
// the same query must produce the same event sequence through GET
// ?q= and a POST body (modulo the done result's elapsed-time field).
// The engine has no result cache, so both forms mine: with one, the
// POST would be served the GET's answer as a lone done event.
func TestStreamPostMatchesGet(t *testing.T) {
	ts, _ := testServer(t, true, surf.WithResultCache(0))
	q, _ := json.Marshal(smallQuery)

	collect := func(resp *http.Response, err error) (events []sseEvent) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		readSSE(t, resp.Body, func(ev sseEvent) bool {
			events = append(events, ev)
			return true
		})
		return events
	}

	got := collect(http.Get(ts.URL + "/v1/stream?q=" + urlQueryEscape(string(q))))
	want := collect(http.Post(ts.URL+"/v1/stream", "application/json",
		strings.NewReader(`{"q":`+string(q)+`}`)))

	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("GET delivered %d events, POST %d", len(got), len(want))
	}
	for i := range got {
		if got[i].name != want[i].name {
			t.Fatalf("event %d: GET %q, POST %q", i, got[i].name, want[i].name)
		}
		if got[i].name == "done" {
			// The done payload embeds wall time; compare the mined
			// regions instead.
			var a, b struct {
				Result surf.Result `json:"result"`
			}
			if err := json.Unmarshal([]byte(got[i].data), &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(want[i].data), &b); err != nil {
				t.Fatal(err)
			}
			ar, br := a.Result, b.Result
			if len(ar.Regions) != len(br.Regions) {
				t.Fatalf("done: GET %d regions, POST %d", len(ar.Regions), len(br.Regions))
			}
			for j := range ar.Regions {
				if ar.Regions[j].Estimate != br.Regions[j].Estimate {
					t.Fatalf("done region %d: estimates differ", j)
				}
			}
			continue
		}
		if got[i].data != want[i].data {
			t.Fatalf("event %d (%s): payloads differ\nGET:  %s\nPOST: %s",
				i, got[i].name, got[i].data, want[i].data)
		}
	}

	t.Run("topk POST form", func(t *testing.T) {
		tq, _ := json.Marshal(surf.TopKQuery{K: 2, Largest: true, Seed: 2, Glowworms: 20, Iterations: 10})
		resp, err := http.Post(ts.URL+"/v1/stream", "application/json",
			strings.NewReader(`{"topk":`+string(tq)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		done := 0
		readSSE(t, resp.Body, func(ev sseEvent) bool {
			if ev.name == "done" {
				done++
			}
			return true
		})
		if done != 1 {
			t.Fatalf("done events = %d", done)
		}
	})
	t.Run("both q and topk → 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/stream", "application/json",
			strings.NewReader(`{"q":{},"topk":{}}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
}

// TestReadyzSingleEngine: a single-engine server is ready the moment
// it serves.
func TestReadyzSingleEngine(t *testing.T) {
	ts, _ := testServer(t, false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestReadyzFlip is the acceptance criterion for /readyz: on a
// registry server it answers 503 while the default dataset is cold,
// each probe kicks the lazy load, and it flips to 200 exactly when
// the dataset reaches ready — all without a single query.
func TestReadyzFlip(t *testing.T) {
	fx := newRegistryFixture(t)
	reg := registry.New(0)
	// A training spec keeps the load slow enough that the first probe
	// observes the unready window.
	if _, err := reg.Register("slow", registry.Spec{
		Data: fx.csv, FilterColumns: []string{"x", "y"}, Statistic: "count",
		Train: 120, TrainSeed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistry(reg, "slow").Handler())
	t.Cleanup(ts.Close)

	get := func() (int, readyzBody) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body readyzBody
		decodeResponse(t, resp, &body)
		return resp.StatusCode, body
	}

	// healthz stays pure liveness through the whole window.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d during load", hresp.StatusCode)
	}
	hresp.Body.Close()

	status, body := get()
	if status != http.StatusServiceUnavailable || body.Status != "unready" {
		t.Fatalf("cold readyz = %d %+v, want 503 unready", status, body)
	}
	// The probe itself must have kicked the load; poll until ready.
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body = get()
		if status == http.StatusOK {
			if body.Status != "ready" || len(body.Datasets) != 1 || body.Datasets[0].State != "ready" {
				t.Fatalf("ready body = %+v", body)
			}
			break
		}
		if st := body.Datasets[0].State; st != "loading" && st != "training" && st != "unloaded" {
			t.Fatalf("unexpected state %q while waiting", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never flipped to 200; last: %d %+v", status, body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Unknown default is a 404, not a 503 loop.
	ts2 := httptest.NewServer(NewRegistry(registry.New(0), "ghost").Handler())
	t.Cleanup(ts2.Close)
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("readyz with unknown default = %d, want 404", resp.StatusCode)
	}
}

// TestReadyzNoDefaultGatesAll: with no default dataset, readiness
// gates on every registered entry.
func TestReadyzNoDefaultGatesAll(t *testing.T) {
	fx := newRegistryFixture(t)
	reg := registry.New(0)
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Register(name, fx.spec(fx.artifactA)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewRegistry(reg, "").Handler())
	t.Cleanup(ts.Close)

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body readyzBody
		decodeResponse(t, resp, &body)
		if resp.StatusCode == http.StatusOK {
			if len(body.Datasets) != 2 {
				t.Fatalf("ready body = %+v, want both datasets", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never became ready: %+v", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
