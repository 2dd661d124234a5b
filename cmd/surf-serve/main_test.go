package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	surf "surf"
	"surf/registry"
)

// writeDataset creates a small CSV dataset for CLI tests.
func writeDataset(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cols := make([][]float64, 2)
	for j := range cols {
		cols[j] = make([]float64, 2000)
		for i := range cols[j] {
			cols[j][i] = float64((i*31+j*17)%1000) / 1000
		}
	}
	ds, err := surf.NewDataset([]string{"x", "y"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitReady polls /readyz until it answers 200: entries load lazily,
// so the listener is up before the model is trained or loaded.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still answers %d after 60s", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// healthBody is the registry-form /healthz response.
type healthBody struct {
	Status   string `json:"status"`
	Default  string `json:"default_dataset"`
	Datasets []struct {
		Name          string `json:"name"`
		State         string `json:"state"`
		Surrogate     bool   `json:"surrogate"`
		SurrogateInfo *struct {
			Statistic string `json:"statistic"`
		} `json:"surrogate_info"`
	} `json:"datasets"`
}

// healthz fetches and decodes /healthz.
func healthz(t *testing.T, base string) healthBody {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, serveOpts{}, nil); err == nil {
		t.Error("expected error without -data/-filters")
	}
	if err := run(ctx, serveOpts{dataPath: "x.csv", filters: "x", stat: "nope"}, nil); err == nil {
		t.Error("expected error for unknown statistic")
	}
	if err := run(ctx, serveOpts{dataPath: "x.csv", filters: "x", stat: "count", modelPath: "m", train: 10}, nil); err == nil {
		t.Error("expected error for -model with -train")
	}
	if err := run(ctx, serveOpts{dataPath: filepath.Join(t.TempDir(), "missing.csv"), filters: "x", stat: "count"}, nil); err == nil {
		t.Error("expected error for missing dataset")
	}
	// An unknown column fails at startup rather than serving an entry
	// that can only fail to load; the deadline stops a server that
	// started anyway.
	short, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := run(short, serveOpts{dataPath: writeDataset(t, t.TempDir()), filters: "x,zz", stat: "count", addr: "127.0.0.1:0"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("-filters x,zz: got %v, want an unknown column error", err)
	}
	if err := run(ctx, serveOpts{registryPath: "cfg.json", dataPath: "x.csv"}, nil); err == nil {
		t.Error("expected error for -registry with -data")
	}
	if err := run(ctx, serveOpts{registryPath: filepath.Join(t.TempDir(), "missing.json")}, nil); err == nil {
		t.Error("expected error for missing registry config")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"models": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, serveOpts{registryPath: empty}, nil); err == nil {
		t.Error("expected error for registry config with no models")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"models": [{"name": "a", "bogus": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, serveOpts{registryPath: bad}, nil); err == nil {
		t.Error("expected error for unknown registry config field")
	}
	// The retrain size is a constant, so a config that still sets it
	// fails at startup; the deadline stops a server that started anyway.
	retrain := filepath.Join(t.TempDir(), "retrain.json")
	cfg := `{"models": [{"name": "a", "data": ` + strconv.Quote(writeDataset(t, t.TempDir())) + `, "filter_columns": ["x", "y"],
		"statistic": "count", "train": 50, "drift_threshold": 0.5, "retrain_trees": 3}]}`
	if err := os.WriteFile(retrain, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	short, cancel = context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	err = run(short, serveOpts{registryPath: retrain, addr: "127.0.0.1:0"}, nil)
	if err == nil || !strings.Contains(err.Error(), "retrain_trees") {
		t.Errorf("config with retrain_trees: got %v, want an unknown field error", err)
	}
}

// TestServeEndToEnd boots the command against a real dataset with a
// surrogate trained at load time, waits for /readyz, exercises the
// HTTP surface of the one-entry registry the flags build — named
// after the CSV and the default dataset — then shuts it down via
// context cancellation.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := writeDataset(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serveOpts{
			dataPath: data, filters: "x,y", stat: "count",
			train: 200, seed: 1, addr: "127.0.0.1:0",
		}, func(addr string) { ready <- addr })
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr
	waitReady(t, base)

	health := healthz(t, base)
	if health.Status != "ok" || health.Default != "data" || len(health.Datasets) != 1 ||
		health.Datasets[0].Name != "data" || health.Datasets[0].State != "ready" ||
		!health.Datasets[0].Surrogate {
		t.Fatalf("healthz = %+v", health)
	}

	q, _ := json.Marshal(surf.Query{Threshold: 10, Above: true, Seed: 2, Glowworms: 20, Iterations: 10})
	resp, err := http.Post(base+"/v1/find", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	var res surf.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("find status %d", resp.StatusCode)
	}

	// The entry is a living dataset like any registry entry.
	resp, err = http.Post(base+"/v1/datasets/data/append", "application/json",
		bytes.NewReader([]byte(`{"rows": [[0.5, 0.5], [0.25, 0.75]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var appended struct {
		DataVersion uint64 `json:"data_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&appended); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || appended.DataVersion != 2 {
		t.Fatalf("append: status %d data_version %d", resp.StatusCode, appended.DataVersion)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancellation", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

// TestServeWithArtifact trains and saves an artifact the way
// surf-train does, then boots surf-serve with -model.
func TestServeWithArtifact(t *testing.T) {
	dir := t.TempDir()
	data := writeDataset(t, dir)

	// Train and save an artifact.
	f, err := os.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := surf.ReadCSVDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := surf.Open(ds, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, surf.TrainOptions{Trees: 10}); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "model.surf")
	mf, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveSurrogate(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serveOpts{
			dataPath: data, filters: "x,y", stat: "count",
			modelPath: model, addr: "127.0.0.1:0",
		}, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr
	waitReady(t, base)
	health := healthz(t, base)
	if len(health.Datasets) != 1 || !health.Datasets[0].Surrogate ||
		health.Datasets[0].SurrogateInfo == nil || health.Datasets[0].SurrogateInfo.Statistic != "count" {
		t.Fatalf("healthz = %+v", health)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}

	// A spec mismatch at startup must fail fast.
	err = run(context.Background(), serveOpts{
		dataPath: data, filters: "x", stat: "count",
		modelPath: model, addr: "127.0.0.1:0",
	}, nil)
	if err == nil {
		t.Fatal("expected artifact/spec mismatch error")
	}
}

// trainTestArtifact trains a Count surrogate over the CSV and saves it
// as a surf-train-style artifact.
func trainTestArtifact(t *testing.T, data, out string) {
	t.Helper()
	f, err := os.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := surf.ReadCSVDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := surf.Open(ds, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, surf.TrainOptions{Trees: 10}); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if err := eng.SaveSurrogate(mf); err != nil {
		t.Fatal(err)
	}
}

// TestServeRegistryEndToEnd boots surf-serve -registry over a
// two-model catalog, drives cross-dataset routing, the
// admin API and a live hot-swap, then shuts down via cancellation.
func TestServeRegistryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataOne := writeDataset(t, dir)
	twoDir := filepath.Join(dir, "two")
	if err := os.MkdirAll(twoDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dataTwo := writeDataset(t, twoDir)
	model := filepath.Join(dir, "model.surf")
	trainTestArtifact(t, dataOne, model)

	cfg := registryConfig{
		Capacity: 2,
		Default:  "one",
		Models: []modelConfig{
			{Name: "one", Spec: registry.Spec{
				Data: dataOne, FilterColumns: []string{"x", "y"},
				Statistic: "count", Artifact: model,
			}},
			{Name: "two", Spec: registry.Spec{
				Data: dataTwo, FilterColumns: []string{"x", "y"},
				Statistic: "count", Artifact: model,
			}},
		},
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "registry.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serveOpts{registryPath: cfgPath, addr: "127.0.0.1:0"},
			func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr
	waitReady(t, base)
	if h := healthz(t, base); h.Default != "one" || len(h.Datasets) != 2 || h.Datasets[0].State != "ready" {
		t.Fatalf("healthz = %+v", h)
	}

	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Default string `json:"default_dataset"`
		Models  []struct {
			Name string `json:"name"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listing.Default != "one" || len(listing.Models) != 2 {
		t.Fatalf("models listing: %+v", listing)
	}

	find := func(dataset string) int {
		body := map[string]any{
			"threshold": 10.0, "above": true, "seed": 2,
			"glowworms": 20, "iterations": 10,
		}
		if dataset != "" {
			body["dataset"] = dataset
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/find", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := find(""); got != http.StatusOK { // default → "one"
		t.Fatalf("default-dataset find: status %d", got)
	}
	if got := find("two"); got != http.StatusOK {
		t.Fatalf("routed find: status %d", got)
	}
	if got := find("nope"); got != http.StatusNotFound {
		t.Fatalf("unknown-dataset find: status %d, want 404", got)
	}

	// Live hot-swap: PUT carrying only the artifact bumps the version.
	swap, err := http.NewRequest(http.MethodPut, base+"/v1/models/two",
		bytes.NewReader([]byte(`{"artifact": `+strconv.Quote(model)+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(swap)
	if err != nil {
		t.Fatal(err)
	}
	var swapped struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || swapped.Version != 2 {
		t.Fatalf("hot swap: status %d version %d", resp.StatusCode, swapped.Version)
	}
	if got := find("two"); got != http.StatusOK {
		t.Fatalf("find after swap: status %d", got)
	}

	del, err := http.NewRequest(http.MethodDelete, base+"/v1/models/two", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if got := find("two"); got != http.StatusNotFound {
		t.Fatalf("find after delete: status %d, want 404", got)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancellation", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}
