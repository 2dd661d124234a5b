// Command surf-serve exposes a dataset (and optionally a trained
// surrogate) over the HTTP query API: POST /v1/find, POST /v1/topk,
// POST /v1/findmany, GET|POST /v1/stream (Server-Sent Events), GET
// /healthz, GET /readyz and GET /metrics (Prometheus text format) —
// the paper's deployment story with the surrogate resident in memory
// and remote analysts querying it.
//
// -log-format json|text emits one structured access-log line per
// request on stderr (route, dataset, status, duration, bytes,
// request ID, plus data_version and drift_score when the request
// pinned a living dataset); the default "off" disables access
// logging.
//
// Usage:
//
//	surf-serve -data data.csv -filters x,y -stat count \
//	           -model model.surf -addr :8080
//	surf-serve -data data.csv -filters x,y -stat count -train 5000
//	surf-serve -registry config.json -addr :8080
//
// The single-dataset flags describe one registry entry, served exactly
// as a one-model -registry file would serve it: -data, -filters,
// -stat, -target, -model, -train and -seed map onto the Spec fields
// data, filter_columns, statistic, target_column, artifact, train and
// train_seed, with use_grid_index on. The entry is named after the
// CSV's base name without its extension (data.csv serves "data") and
// is the default dataset. With -model, the entry loads a surf-train
// artifact; with -train N, it generates an N-query workload and trains
// a surrogate. Either happens lazily, on the first query or /readyz
// probe, so /readyz answers 503 until the entry is ready. With
// neither, only use_true_function queries can be served; the rest
// answer 409 until a model arrives. Startup itself checks the columns
// against the CSV's header line and, with -model, the artifact's
// statistic, filter and target columns against the flags; a mismatch
// exits non-zero. The engine's
// result cache has its default 64 entries; there is no -cache flag.
//
// With -registry config.json the process serves a whole catalog of
// datasets: the config lists named model specs
// (dataset CSV, filter columns, statistic, artifact or startup
// training budget), queries route by their "dataset" field, and the
// /v1/models admin API registers, hot-swaps and removes entries at
// runtime. The config's JSON form is
//
//	{
//	  "capacity": 4,                // loaded-entry LRU bound, 0 = unbounded
//	  "default": "taxi",            // dataset for requests naming none
//	  "models": [
//	    {"name": "taxi", "data": "taxi.csv", "filter_columns": ["lon", "lat"],
//	     "statistic": "count", "artifact": "taxi.surf"},
//	    {"name": "air", "data": "air.csv", "filter_columns": ["t", "h"],
//	     "statistic": "mean", "target_column": "pm25", "train": 2000}
//	  ]
//	}
//
// with each model entry holding a registry Spec. Entries load lazily
// on first use; -capacity and -default override the config.
//
// Registry entries are living datasets: POST /v1/datasets/{name}/append
// commits new rows and hot-swaps the grown data version into the
// entry's engine without dropping in-flight queries. A spec with
// "drift_threshold" (plus optional "drift_reservoir") monitors
// surrogate drift after every append — the score is exposed via
// /v1/models and /metrics, and a threshold crossing retrains the model
// in the background (25 extra trees fitted to 256 fresh queries) and
// republishes it through the registry's atomic swap.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight queries and streams.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"

	"surf/internal/cli"
	"surf/registry"
	"surf/server"
)

func main() {
	var o serveOpts
	flag.StringVar(&o.dataPath, "data", "", "dataset CSV (required)")
	flag.StringVar(&o.filters, "filters", "", "comma-separated filter columns (required)")
	flag.StringVar(&o.stat, "stat", "count", "statistic: count, sum, mean, min, max, median, variance, stddev, ratio")
	flag.StringVar(&o.target, "target", "", "target column (for statistics other than count)")
	flag.StringVar(&o.modelPath, "model", "", "surrogate artifact from surf-train")
	flag.IntVar(&o.train, "train", 0, "train a surrogate when the dataset loads, from this many generated queries (0 = don't)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for -train workload generation")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.registryPath, "registry", "", "multi-dataset registry config JSON (exclusive with -data)")
	flag.IntVar(&o.capacity, "capacity", 0, "override the registry config's loaded-entry capacity")
	flag.StringVar(&o.defaultDataset, "default", "", "override the registry config's default dataset")
	flag.StringVar(&o.logFormat, "log-format", "off", "access log format: json, text, or off")
	flag.Parse()
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx, o, nil); err != nil {
		cli.Exit("surf-serve", err)
	}
}

// serveOpts carries the parsed command line.
type serveOpts struct {
	dataPath, filters, stat, target, modelPath string
	train                                      int
	seed                                       uint64
	addr                                       string
	registryPath, defaultDataset               string
	capacity                                   int
	logFormat                                  string
}

// serverOptions maps -log-format onto the server's access-log option.
// Logs go to stderr so they never interleave with stdout status lines.
func serverOptions(o serveOpts) ([]server.Option, error) {
	switch o.logFormat {
	case "off", "":
		return nil, nil
	case "json":
		return []server.Option{server.WithAccessLogger(
			slog.New(slog.NewJSONHandler(os.Stderr, nil)))}, nil
	case "text":
		return []server.Option{server.WithAccessLogger(
			slog.New(slog.NewTextHandler(os.Stderr, nil)))}, nil
	default:
		return nil, fmt.Errorf("-log-format %q: want json, text, or off", o.logFormat)
	}
}

// registryConfig is the -registry file: the catalog served at startup.
type registryConfig struct {
	// Capacity bounds how many entries stay loaded at once (0 =
	// unbounded); entries above it are evicted least-recently-used,
	// never while serving a query.
	Capacity int `json:"capacity,omitempty"`
	// Default is the dataset used by requests that name none. A
	// single-model config defaults to that model.
	Default string        `json:"default,omitempty"`
	Models  []modelConfig `json:"models"`
}

// modelConfig is one named registry entry.
type modelConfig struct {
	Name string `json:"name"`
	registry.Spec
}

// run builds the registry — from the -registry config, or as one
// entry from the single-dataset flags — and serves it until ctx is
// cancelled. Every spec is validated at startup (missing files, bad
// statistics and artifact/spec mismatches fail fast); engines load
// lazily on first request or readiness probe. onReady, when non-nil,
// receives the bound address once the listener is up (tests use it to
// learn the port behind ":0").
func run(ctx context.Context, o serveOpts, onReady func(addr string)) error {
	srvOpts, err := serverOptions(o)
	if err != nil {
		return err
	}
	var cfg registryConfig
	if o.registryPath != "" {
		cfg, err = readRegistryConfig(o)
	} else {
		cfg, err = flagsConfig(o)
	}
	if err != nil {
		return err
	}
	reg := registry.New(cfg.Capacity)
	for _, m := range cfg.Models {
		if _, err := reg.Register(m.Name, m.Spec); err != nil {
			return fmt.Errorf("model %q: %w", m.Name, err)
		}
	}
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s (%d datasets, default %q)\n", l.Addr(), len(cfg.Models), cfg.Default)
	if onReady != nil {
		onReady(l.Addr().String())
	}
	err = server.NewRegistry(reg, cfg.Default, srvOpts...).Serve(ctx, l)
	if err == nil {
		fmt.Println("shut down cleanly")
	}
	return err
}

// flagsConfig maps the single-dataset flags onto a one-entry config:
// the entry is named after the CSV's base name without its extension
// and is the default dataset.
func flagsConfig(o serveOpts) (registryConfig, error) {
	if o.dataPath == "" || o.filters == "" {
		return registryConfig{}, fmt.Errorf("-data and -filters are required")
	}
	name := strings.TrimSuffix(filepath.Base(o.dataPath), filepath.Ext(o.dataPath))
	return registryConfig{
		Default: name,
		Models: []modelConfig{{Name: name, Spec: registry.Spec{
			Data:          o.dataPath,
			FilterColumns: strings.Split(o.filters, ","),
			Statistic:     o.stat,
			TargetColumn:  o.target,
			Artifact:      o.modelPath,
			Train:         o.train,
			TrainSeed:     o.seed,
			UseGridIndex:  true,
		}}},
	}, nil
}

// readRegistryConfig reads the -registry config and applies the
// -capacity and -default overrides.
func readRegistryConfig(o serveOpts) (registryConfig, error) {
	if o.dataPath != "" || o.filters != "" || o.modelPath != "" || o.train > 0 {
		return registryConfig{}, fmt.Errorf("-registry is exclusive with -data/-filters/-model/-train")
	}
	raw, err := os.ReadFile(o.registryPath)
	if err != nil {
		return registryConfig{}, err
	}
	var cfg registryConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return registryConfig{}, fmt.Errorf("registry config %s: %v", o.registryPath, err)
	}
	if len(cfg.Models) == 0 {
		return registryConfig{}, fmt.Errorf("registry config %s: no models", o.registryPath)
	}
	if o.capacity > 0 {
		cfg.Capacity = o.capacity
	}
	if o.defaultDataset != "" {
		cfg.Default = o.defaultDataset
	}
	if cfg.Default == "" && len(cfg.Models) == 1 {
		cfg.Default = cfg.Models[0].Name
	}
	return cfg, nil
}
