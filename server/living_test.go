package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"surf/registry"
)

// appendBatch builds n full-width (x, y) rows clustered like the
// fixture's dense corner, so appends measurably shift local counts.
func appendBatch(n int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 99))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{0.7 + rng.NormFloat64()*0.05, 0.3 + rng.NormFloat64()*0.05}
	}
	return rows
}

// TestDatasetAppendEndpoint walks the happy path: an append answers
// the new data version and row count, the /v1/models body carries the
// bumped data_version, queries keep serving, and the /metrics scrape
// exports the new version.
func TestDatasetAppendEndpoint(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)

	// Queries before the append so the entry is loaded and cached.
	postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "alpha")).Body.Close()

	resp := postJSON(t, ts.URL+"/v1/datasets/alpha/append",
		map[string]any{"rows": appendBatch(40, 7)})
	var ar appendResponse
	decodeResponse(t, resp, &ar)
	if ar.Name != "alpha" || ar.DataVersion != 2 || ar.Rows != 1540 || ar.Appended != 40 {
		t.Fatalf("append response: %+v", ar)
	}

	// The admin body reports the new version; queries still answer.
	mresp, err := http.Get(ts.URL + "/v1/models/alpha")
	if err != nil {
		t.Fatal(err)
	}
	var m modelBody
	decodeResponse(t, mresp, &m)
	if m.DataVersion != 2 || m.Rows != 1540 {
		t.Fatalf("model after append: data_version %d rows %d", m.DataVersion, m.Rows)
	}
	resp = postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "alpha"))
	wantStatus(t, resp, http.StatusOK, "")

	sresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape := readBody(t, sresp)
	if !strings.Contains(scrape, `surf_dataset_data_version{dataset="alpha"} 2`) {
		t.Fatalf("scrape missing bumped data version:\n%s", scrape)
	}
}

// TestDatasetAppendErrors covers the failure surface: unknown names,
// batches the store rejects, oversized bodies and single-engine
// servers, each with its stable error code.
func TestDatasetAppendErrors(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)

	resp := postJSON(t, ts.URL+"/v1/datasets/ghost/append",
		map[string]any{"rows": appendBatch(1, 1)})
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")

	resp = postJSON(t, ts.URL+"/v1/datasets/alpha/append", map[string]any{"rows": [][]float64{}})
	wantStatus(t, resp, http.StatusBadRequest, "bad_append")

	resp = postJSON(t, ts.URL+"/v1/datasets/alpha/append",
		map[string]any{"rows": [][]float64{{0.5}}}) // short row
	wantStatus(t, resp, http.StatusBadRequest, "bad_append")

	resp, err := http.Post(ts.URL+"/v1/datasets/alpha/append", "application/json",
		strings.NewReader(`{"rows": [[0.5, 0.5]]}{"rows": [[0.6, 0.6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest, "bad_query")

	big := map[string]any{"rows": appendBatch(40000, 2)}
	resp = postJSON(t, ts.URL+"/v1/datasets/alpha/append", big)
	wantStatus(t, resp, http.StatusRequestEntityTooLarge, "body_too_large")

	// Nothing above moved the data version.
	mresp, err := http.Get(ts.URL + "/v1/models/alpha")
	if err != nil {
		t.Fatal(err)
	}
	var m modelBody
	decodeResponse(t, mresp, &m)
	if m.State == "ready" && m.DataVersion != 1 {
		t.Fatalf("failed appends moved data version to %d", m.DataVersion)
	}

	single, _ := testServer(t, true)
	resp = postJSON(t, single.URL+"/v1/datasets/alpha/append",
		map[string]any{"rows": appendBatch(1, 3)})
	wantStatus(t, resp, http.StatusNotFound, "no_registry")
}

// TestDatasetAppendDrift registers a drift-monitored entry and checks
// the append response and /metrics expose the post-append drift score.
func TestDatasetAppendDrift(t *testing.T) {
	fx := newRegistryFixture(t)
	reg := registry.New(0)
	if _, err := reg.Register("delta", registry.Spec{
		Data: fx.csv, FilterColumns: []string{"x", "y"}, Statistic: "count",
		Train: 40, TrainSeed: 3,
		// A threshold far above any reachable score: this test wants the
		// monitoring surface, not a background retrain.
		DriftThreshold: 1e6, DriftReservoir: 8,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistry(reg, "delta").Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/datasets/delta/append",
		map[string]any{"rows": appendBatch(30, 11)})
	var ar appendResponse
	decodeResponse(t, resp, &ar)
	if ar.DataVersion != 2 || ar.Drift == nil || !ar.Drift.Checked || ar.RetrainStarted {
		t.Fatalf("drift append response: %+v (drift %+v)", ar, ar.Drift)
	}
	if ar.Drift.Samples != 8 || ar.Drift.Threshold != 1e6 {
		t.Fatalf("drift body: %+v", ar.Drift)
	}

	mresp, err := http.Get(ts.URL + "/v1/models/delta")
	if err != nil {
		t.Fatal(err)
	}
	var m modelBody
	decodeResponse(t, mresp, &m)
	if m.Drift == nil || !m.Drift.Checked || m.Drift.Score != ar.Drift.Score {
		t.Fatalf("model drift body: %+v, want score %v", m.Drift, ar.Drift.Score)
	}

	sresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape := readBody(t, sresp)
	for _, want := range []string{
		`surf_dataset_drift_score{dataset="delta"}`,
		`surf_dataset_retrains_total{dataset="delta"} 0`,
		`surf_dataset_retraining{dataset="delta"} 0`,
		`surf_dataset_data_version{dataset="delta"} 2`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", scrape)
	}
}

// lockedBuffer serializes the access logger's writes against the
// test's reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogDatasetVersionFields pins satellite behavior of the
// access log: lines for requests that pinned a living dataset carry
// data_version (and drift_score once a check has run); lines for
// requests that never resolved one carry neither field.
func TestAccessLogDatasetVersionFields(t *testing.T) {
	fx := newRegistryFixture(t)
	reg := registry.New(0)
	if _, err := reg.Register("delta", registry.Spec{
		Data: fx.csv, FilterColumns: []string{"x", "y"}, Statistic: "count",
		Train: 40, TrainSeed: 3, DriftThreshold: 1e6, DriftReservoir: 8,
	}); err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	ts := httptest.NewServer(NewRegistry(reg, "delta", WithAccessLogger(logger)).Handler())
	t.Cleanup(ts.Close)

	// healthz never pins a dataset; find pins version 1; an append bumps
	// to 2 and runs the first drift check, so the follow-up find logs
	// both fields.
	get, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, get.Body)
	get.Body.Close()
	postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "delta")).Body.Close()
	postJSON(t, ts.URL+"/v1/datasets/delta/append",
		map[string]any{"rows": appendBatch(10, 5)}).Body.Close()
	postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "delta")).Body.Close()

	// The trace middleware logs after the handler returns, which can
	// trail the client seeing the response; wait for all four lines.
	var lines []map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for {
		lines = lines[:0]
		for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			if raw == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(raw), &m); err != nil {
				t.Fatalf("log line %q: %v", raw, err)
			}
			lines = append(lines, m)
		}
		if len(lines) >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(lines) != 4 {
		t.Fatalf("access log has %d lines, want 4:\n%s", len(lines), logs.String())
	}

	byRoute := func(route string) []map[string]any {
		var out []map[string]any
		for _, m := range lines {
			if m["route"] == route {
				out = append(out, m)
			}
		}
		return out
	}
	health := byRoute("GET /healthz")
	if len(health) != 1 {
		t.Fatalf("healthz lines: %d", len(health))
	}
	if _, ok := health[0]["data_version"]; ok {
		t.Errorf("healthz line carries data_version: %v", health[0])
	}
	if _, ok := health[0]["drift_score"]; ok {
		t.Errorf("healthz line carries drift_score: %v", health[0])
	}

	finds := byRoute("POST /v1/find")
	if len(finds) != 2 {
		t.Fatalf("find lines: %d", len(finds))
	}
	if v, ok := finds[0]["data_version"].(float64); !ok || v != 1 {
		t.Errorf("first find data_version = %v, want 1", finds[0]["data_version"])
	}
	if _, ok := finds[0]["drift_score"]; ok {
		t.Errorf("first find carries drift_score before any check: %v", finds[0])
	}
	if v, ok := finds[1]["data_version"].(float64); !ok || v != 2 {
		t.Errorf("post-append find data_version = %v, want 2", finds[1]["data_version"])
	}
	if _, ok := finds[1]["drift_score"]; !ok {
		t.Errorf("post-append find missing drift_score: %v", finds[1])
	}

	appends := byRoute("POST /v1/datasets/{name}/append")
	if len(appends) != 1 {
		t.Fatalf("append lines: %d", len(appends))
	}
	if v, ok := appends[0]["data_version"].(float64); !ok || v != 2 {
		t.Errorf("append line data_version = %v, want 2", appends[0]["data_version"])
	}
	if appends[0]["dataset"] != "delta" {
		t.Errorf("append line dataset = %v", appends[0]["dataset"])
	}
}
