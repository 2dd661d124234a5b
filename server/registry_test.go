package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	surf "surf"
	"surf/registry"
)

// registryFixture holds the on-disk pieces a registry spec points at: a
// clustered dataset CSV and two Count-statistic artifacts trained over
// it with different tree counts (distinguishable via surrogate_info, so
// hot-swap tests can see which model answered).
type registryFixture struct {
	csv, artifactA, artifactB string
}

func newRegistryFixture(t *testing.T) registryFixture {
	t.Helper()
	dir := t.TempDir()
	fx := registryFixture{
		csv:       filepath.Join(dir, "data.csv"),
		artifactA: filepath.Join(dir, "a.surf"),
		artifactB: filepath.Join(dir, "b.surf"),
	}

	rng := rand.New(rand.NewPCG(17, 3))
	n := 1500
	var sb strings.Builder
	sb.WriteString("x,y\n")
	for i := 0; i < n; i++ {
		var x, y float64
		if i%3 == 0 {
			x, y = 0.7+rng.NormFloat64()*0.05, 0.3+rng.NormFloat64()*0.05
		} else {
			x, y = rng.Float64(), rng.Float64()
		}
		fmt.Fprintf(&sb, "%s,%s\n",
			strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(y, 'g', -1, 64))
	}
	if err := os.WriteFile(fx.csv, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(fx.csv)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := surf.ReadCSVDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for path, trees := range map[string]int{fx.artifactA: 5, fx.artifactB: 12} {
		eng, err := surf.Open(ds, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count})
		if err != nil {
			t.Fatal(err)
		}
		wl, err := eng.GenerateWorkload(150, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.TrainSurrogate(wl, surf.TrainOptions{Trees: trees}); err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SaveSurrogate(out); err != nil {
			t.Fatal(err)
		}
		out.Close()
	}
	return fx
}

func (fx registryFixture) spec(artifact string) registry.Spec {
	return registry.Spec{
		Data:          fx.csv,
		FilterColumns: []string{"x", "y"},
		Statistic:     "count",
		Artifact:      artifact,
	}
}

// registryServer mounts a registry-mode Server over "alpha" and "beta"
// entries (both artifact A) with "alpha" as the default dataset.
func registryServer(t *testing.T, fx registryFixture) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(0)
	for _, name := range []string{"alpha", "beta"} {
		if _, err := reg.Register(name, fx.spec(fx.artifactA)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewRegistry(reg, "alpha").Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

// withDataset flattens q's JSON form and adds the routing field, the
// wire shape of a registry-routed request.
func withDataset(t *testing.T, q any, dataset string) map[string]any {
	t.Helper()
	raw, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if dataset != "" {
		m["dataset"] = dataset
	}
	return m
}

// wantStatus fails unless the response has the HTTP status and (for
// non-200s) the machine-readable error code.
func wantStatus(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, body)
	}
	if code != "" {
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("error body %q: %v", body, err)
		}
		if eb.Error.Code != code {
			t.Fatalf("error code %q, want %q (%s)", eb.Error.Code, code, body)
		}
		if eb.Error.RequestID == "" {
			t.Fatalf("error envelope missing request_id: %s", body)
		}
	}
}

// putJSON PUTs v as JSON (a []byte goes out verbatim) and returns the
// response.
func putJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, raw := v.([]byte)
	if !raw {
		var err error
		if body, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRegistryRouting drives every query endpoint through the dataset
// field: explicit names route, the default fills in for requests naming
// none, and unknown names answer 404.
func TestRegistryRouting(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)

	for _, dataset := range []string{"alpha", "beta", ""} {
		resp := postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, dataset))
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("find dataset=%q: status %d: %s", dataset, resp.StatusCode, b)
		}
		var res surf.Result
		decodeResponse(t, resp, &res)
		if len(res.Regions) == 0 {
			t.Fatalf("find dataset=%q mined no regions", dataset)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "gamma"))
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")

	tq := surf.TopKQuery{K: 2, Largest: true, Seed: 2, Glowworms: 20, Iterations: 10}
	resp = postJSON(t, ts.URL+"/v1/topk", withDataset(t, tq, "beta"))
	wantStatus(t, resp, http.StatusOK, "")
	resp = postJSON(t, ts.URL+"/v1/topk", withDataset(t, tq, "gamma"))
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")

	resp = postJSON(t, ts.URL+"/v1/findmany",
		map[string]any{"dataset": "beta", "queries": []surf.Query{smallQuery}})
	wantStatus(t, resp, http.StatusOK, "")
	resp = postJSON(t, ts.URL+"/v1/findmany",
		map[string]any{"dataset": "gamma", "queries": []surf.Query{smallQuery}})
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")
}

// TestRegistryNoDefault checks a server without a default dataset
// rejects requests that name none.
func TestRegistryNoDefault(t *testing.T) {
	fx := newRegistryFixture(t)
	reg := registry.New(0)
	if _, err := reg.Register("alpha", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistry(reg, "").Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, ""))
	wantStatus(t, resp, http.StatusBadRequest, "bad_query")
}

// TestModelsCRUD walks the admin API: list, get, register, hot-swap,
// spec validation failures and removal.
func TestModelsCRUD(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)

	var listing struct {
		Default string      `json:"default_dataset"`
		Models  []modelBody `json:"models"`
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	decodeResponse(t, resp, &listing)
	if listing.Default != "alpha" || len(listing.Models) != 2 {
		t.Fatalf("listing: default %q, %d models", listing.Default, len(listing.Models))
	}
	if listing.Models[0].Name != "alpha" || listing.Models[1].Name != "beta" {
		t.Fatalf("listing not sorted by name: %q, %q", listing.Models[0].Name, listing.Models[1].Name)
	}
	for _, m := range listing.Models {
		if m.State != "unloaded" || m.Version != 1 {
			t.Fatalf("model %s: state %q version %d before any query", m.Name, m.State, m.Version)
		}
	}

	// A query loads the entry; its status shows rows and model info.
	postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "beta")).Body.Close()
	resp, err = http.Get(ts.URL + "/v1/models/beta")
	if err != nil {
		t.Fatal(err)
	}
	var m modelBody
	decodeResponse(t, resp, &m)
	if m.State != "ready" || m.Rows != 1500 || !m.Surrogate {
		t.Fatalf("beta after query: state %q rows %d surrogate %v", m.State, m.Rows, m.Surrogate)
	}
	if m.SurrogateInfo == nil || m.SurrogateInfo.Trees != 5 {
		t.Fatalf("beta surrogate info: %+v", m.SurrogateInfo)
	}
	// The status names no inference kernel: there is only one.
	resp, err = http.Get(ts.URL + "/v1/models/beta")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		SurrogateInfo map[string]json.RawMessage `json:"surrogate_info"`
	}
	decodeResponse(t, resp, &raw)
	if _, ok := raw.SurrogateInfo["kernel"]; ok || raw.SurrogateInfo["trees"] == nil {
		t.Fatalf("beta surrogate_info fields: %v", raw.SurrogateInfo)
	}

	resp, err = http.Get(ts.URL + "/v1/models/gamma")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")

	// Register a new entry, then hot-swap beta's artifact: carrying only
	// the changed field inherits the rest of the running spec.
	var putRes struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
	}
	resp = putJSON(t, ts.URL+"/v1/models/gamma", fx.spec(fx.artifactB))
	decodeResponse(t, resp, &putRes)
	if putRes.Version != 1 {
		t.Fatalf("new model version %d, want 1", putRes.Version)
	}
	resp = putJSON(t, ts.URL+"/v1/models/beta", map[string]any{"artifact": fx.artifactB})
	decodeResponse(t, resp, &putRes)
	if putRes.Version != 2 {
		t.Fatalf("swapped model version %d, want 2", putRes.Version)
	}
	postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "beta")).Body.Close()
	resp, err = http.Get(ts.URL + "/v1/models/beta")
	if err != nil {
		t.Fatal(err)
	}
	decodeResponse(t, resp, &m)
	if m.Version != 2 || m.SurrogateInfo == nil || m.SurrogateInfo.Trees != 12 {
		t.Fatalf("beta after swap: version %d info %+v", m.Version, m.SurrogateInfo)
	}

	// Validation failures: an incoherent spec or a field Spec does not
	// have is a 400, an artifact contradicting the spec's statistic or
	// failing its checksum a 422, an oversized body a 413, and none
	// touches the entry.
	art, err := os.ReadFile(fx.artifactA)
	if err != nil {
		t.Fatal(err)
	}
	art[len(art)/2] ^= 0x10
	corrupt := filepath.Join(t.TempDir(), "corrupt.surf")
	if err := os.WriteFile(corrupt, art, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, model string
		body        any
		status      int
		code        string
	}{
		{"incoherent spec", "delta", map[string]any{"statistic": "count"}, http.StatusBadRequest, "bad_spec"},
		{"artifact mismatch", "delta", map[string]any{
			"data": fx.csv, "filter_columns": []string{"x", "y"},
			"statistic": "sum", "target_column": "x", "artifact": fx.artifactA,
		}, http.StatusUnprocessableEntity, "bad_artifact"},
		{"corrupted artifact", "delta", fx.spec(corrupt), http.StatusUnprocessableEntity, "bad_artifact"},
		{"unknown field", "beta", map[string]any{"shards": 2}, http.StatusBadRequest, "bad_spec"},
		{"removed kernel field", "beta", map[string]any{"kernel": "scalar"}, http.StatusBadRequest, "bad_spec"},
		{"removed retrain field", "beta", map[string]any{"artifact": fx.artifactB, "retrain_queries": 24},
			http.StatusBadRequest, "bad_spec"},
		// Valid on its own, so only the trailing value can refuse it.
		{"trailing JSON value", "beta", []byte(fmt.Sprintf(`{"artifact": %q}{"kernel": "scalar"}`, fx.artifactB)),
			http.StatusBadRequest, "bad_spec"},
		{"oversized body", "beta", map[string]any{"data": strings.Repeat("x", maxBodyBytes)},
			http.StatusRequestEntityTooLarge, "body_too_large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus(t, putJSON(t, ts.URL+"/v1/models/"+tc.model, tc.body), tc.status, tc.code)
		})
	}
	resp, err = http.Get(ts.URL + "/v1/models/delta")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")
	resp, err = http.Get(ts.URL + "/v1/models/beta")
	if err != nil {
		t.Fatal(err)
	}
	decodeResponse(t, resp, &m)
	if m.Version != 2 {
		t.Fatalf("beta version %d after rejected PUTs, want 2", m.Version)
	}

	// Removal: the name stops routing.
	resp = doDelete(t, ts.URL+"/v1/models/gamma")
	wantStatus(t, resp, http.StatusOK, "")
	resp = postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "gamma"))
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")
	resp = doDelete(t, ts.URL+"/v1/models/gamma")
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")
}

// TestRegistryHealthz checks the per-dataset readiness report.
func TestRegistryHealthz(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)
	postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "alpha")).Body.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body registryHealthzBody
	decodeResponse(t, resp, &body)
	if body.Status != "ok" || body.Default != "alpha" {
		t.Fatalf("healthz status %q default %q", body.Status, body.Default)
	}
	states := map[string]string{}
	for _, d := range body.Datasets {
		states[d.Name] = d.State
	}
	if states["alpha"] != "ready" || states["beta"] != "unloaded" {
		t.Fatalf("healthz states: %v", states)
	}
}

// TestBodyLimit checks oversized POST bodies answer 413 with the
// body_too_large code instead of a generic parse error.
func TestBodyLimit(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)
	big := findManyRequest{Queries: make([]surf.Query, 20000)}
	for i := range big.Queries {
		big.Queries[i] = smallQuery
	}
	resp := postJSON(t, ts.URL+"/v1/findmany", big)
	wantStatus(t, resp, http.StatusRequestEntityTooLarge, "body_too_large")

	resp = postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "alpha"))
	wantStatus(t, resp, http.StatusOK, "")
}

// TestStreamDatasetRouting checks ?dataset= routes SSE streams.
func TestStreamDatasetRouting(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)
	q, err := json.Marshal(smallQuery)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stream?dataset=beta&q=" + urlQueryEscape(string(q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, b)
	}
	var done bool
	readSSE(t, resp.Body, func(ev sseEvent) bool {
		done = ev.name == "done"
		return !done
	})
	if !done {
		t.Fatal("stream ended without a done event")
	}

	resp, err = http.Get(ts.URL + "/v1/stream?dataset=gamma&q=" + urlQueryEscape(string(q)))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")
}

// TestSingleModeRegistryEndpoints checks a single-engine server rejects
// registry-only features: the admin API 404s and a dataset field has
// nothing to route by.
func TestSingleModeRegistryEndpoints(t *testing.T) {
	ts, _ := testServer(t, true)

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound, "no_registry")
	resp = putJSON(t, ts.URL+"/v1/models/alpha", map[string]any{"data": "x.csv"})
	wantStatus(t, resp, http.StatusNotFound, "no_registry")
	resp = doDelete(t, ts.URL+"/v1/models/alpha")
	wantStatus(t, resp, http.StatusNotFound, "no_registry")

	resp = postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "alpha"))
	wantStatus(t, resp, http.StatusNotFound, "unknown_dataset")
}

// TestHotSwapUnderHTTPLoad hammers /v1/find while hot-swapping the
// model: every request must answer 200 — in-flight queries finish on
// the engine set they pinned, later ones see the new version.
func TestHotSwapUnderHTTPLoad(t *testing.T) {
	fx := newRegistryFixture(t)
	ts, _ := registryServer(t, fx)

	const workers, rounds = 6, 5
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				resp := postJSON(t, ts.URL+"/v1/find", withDataset(t, smallQuery, "alpha"))
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("find: status %d: %s", resp.StatusCode, body)
				}
			}
		}()
	}
	close(start)
	for _, artifact := range []string{fx.artifactB, fx.artifactA} {
		resp := putJSON(t, ts.URL+"/v1/models/alpha", map[string]any{"artifact": artifact})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("swap: status %d: %s", resp.StatusCode, body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
