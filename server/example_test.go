//go:build amd64 && !amd64.v2 && !race

// This example prints mined regions, so its output is an answer: it is
// checked only where the floating-point code is fixed (GOARCH=amd64 at
// GOAMD64=v1) and not under the race detector. Errors it drops would
// change what it prints, so they fail it all the same.

package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	surf "surf"
	"surf/registry"
	"surf/server"
)

// ExampleNewRegistry runs the HTTP query API end to end in one process:
// a one-entry registry that trains its surrogate when first queried,
// served on a loopback port, then a plain HTTP client asking for
// /healthz, a blocking /v1/find and a progressive /v1/stream, and a
// clean shutdown. surf-serve serves the same registry from a config
// file; everything the client half does works unchanged against it.
func ExampleNewRegistry() {
	// The entry's data: 20,000 points, a quarter of them in one dense
	// cluster at (0.7, 0.3), written as CSV where the spec can find it.
	rng := rand.New(rand.NewPCG(11, 4))
	const n = 20000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range n {
		if i%4 == 0 {
			xs[i], ys[i] = 0.7+rng.NormFloat64()*0.04, 0.3+rng.NormFloat64()*0.04
		} else {
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		}
	}
	ds, _ := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	var data bytes.Buffer
	_ = ds.WriteCSV(&data) // a bytes.Buffer write cannot fail
	dir, err := os.MkdirTemp("", "surf-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	csvPath := filepath.Join(dir, "clusters.csv")
	if err := os.WriteFile(csvPath, data.Bytes(), 0o644); err != nil {
		fmt.Println(err)
		return
	}

	reg := registry.New(0)
	_, err = reg.Register("clusters", registry.Spec{
		Data: csvPath, FilterColumns: []string{"x", "y"}, Statistic: "count",
		Train: 3000, TrainSeed: 1, UseGridIndex: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- server.NewRegistry(reg, "clusters").Serve(ctx, l) }()
	base := "http://" + l.Addr().String()

	// Liveness and each entry's lifecycle state. Entries load lazily,
	// so nothing has been read or trained yet.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		fmt.Println(err)
		return
	}
	var health struct {
		Status   string `json:"status"`
		Datasets []struct {
			Name    string `json:"name"`
			Version int    `json:"version"`
			State   string `json:"state"`
		} `json:"datasets"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	for _, d := range health.Datasets {
		fmt.Printf("healthz: %s, %s v%d %s\n", health.Status, d.Name, d.Version, d.State)
	}

	// One blocking query over HTTP; it waits for the entry to load and
	// train. It names no dataset, so it goes to the default entry.
	// MinSideFrac keeps the size regularizer from shrinking regions
	// below the scale the surrogate was trained on.
	query := surf.Query{Threshold: 250, Above: true, MaxRegions: 3, Seed: 7, MinSideFrac: 0.05}
	body, _ := json.Marshal(query)
	resp, err = http.Post(base+"/v1/find", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	var res surf.Result
	_ = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	fmt.Printf("POST /v1/find: HTTP %d, %d regions, %.0f%% verified\n",
		resp.StatusCode, len(res.Regions), res.ComplianceRate*100)
	for i, r := range res.Regions {
		fmt.Printf("  region %d: x in [%.3f, %.3f], y in [%.3f, %.3f], estimate %.0f\n",
			i, r.Min[0], r.Max[0], r.Min[1], r.Max[1], r.Estimate)
	}

	// The query with a new seed as Server-Sent Events: swarm telemetry,
	// incumbent regions as they stabilize, and the final result. The
	// first query is in the result cache, so streaming it would send
	// only the done event.
	query.Seed = 8
	body, _ = json.Marshal(query)
	fmt.Println("GET /v1/stream:")
	stream, err := http.Get(base + "/v1/stream?q=" + url.QueryEscape(string(body)))
	if err != nil {
		fmt.Println(err)
		return
	}
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		ev, err := surf.UnmarshalEvent([]byte(data))
		if err != nil {
			fmt.Println(err)
			break
		}
		switch ev := ev.(type) {
		case surf.EventIteration:
			if (ev.Iteration+1)%25 == 0 {
				fmt.Printf("  iter %d: E[J]=%.4g, %.0f%% particles valid\n",
					ev.Iteration, ev.MeanFitness, ev.ValidParticleFraction*100)
			}
		case surf.EventRegion:
			fmt.Printf("  incumbent at iter %d: estimate %.0f\n", ev.Iteration, ev.Region.Estimate)
		case surf.EventDone:
			fmt.Printf("  done: %d regions\n", len(ev.Result.Regions))
		}
	}
	stream.Body.Close()

	// Graceful shutdown: cancel the serve context and wait.
	cancel()
	if err := <-served; err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("server shut down cleanly")
	// Output:
	// healthz: ok, clusters v1 unloaded
	// POST /v1/find: HTTP 200, 3 regions, 100% verified
	//   region 0: x in [0.673, 0.773], y in [0.246, 0.346], estimate 2351
	//   region 1: x in [0.617, 0.719], y in [0.259, 0.364], estimate 1353
	//   region 2: x in [0.635, 0.747], y in [0.306, 0.419], estimate 1366
	// GET /v1/stream:
	//   incumbent at iter 19: estimate 1639
	//   incumbent at iter 19: estimate 822
	//   iter 24: E[J]=26.15, 100% particles valid
	//   incumbent at iter 29: estimate 1714
	//   iter 49: E[J]=28.37, 100% particles valid
	//   incumbent at iter 49: estimate 1923
	//   incumbent at iter 49: estimate 1393
	//   iter 74: E[J]=30.09, 98% particles valid
	//   iter 99: E[J]=31.19, 100% particles valid
	//   done: 3 regions
	// server shut down cleanly
}
