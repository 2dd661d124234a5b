// Serve: the HTTP query API end to end — a server with a trained
// surrogate and a plain HTTP client talking to it.
//
//  1. Build a clustered dataset, open an engine, train a surrogate
//     and start the HTTP server in-process on a loopback port (in a
//     real deployment this half lives in surf-serve; everything the
//     client half does works unchanged against it).
//  2. GET /healthz — liveness plus what the resident surrogate
//     computes.
//  3. POST /v1/find — a threshold query as JSON, a ranked Result
//     back.
//  4. GET /v1/stream — the query with another seed as Server-Sent
//     Events: swarm telemetry while it runs, incumbent regions as
//     they stabilize, and the final result, decoded with
//     surf.UnmarshalEvent.
//
// Run with: go run ./examples/serve
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strings"

	surf "surf"
	"surf/server"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// 1. Server half: dataset, engine, surrogate, HTTP listener.
	rng := rand.New(rand.NewPCG(11, 4))
	const n = 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%4 == 0 { // one dense cluster at (0.7, 0.3)
			xs[i] = 0.7 + rng.NormFloat64()*0.04
			ys[i] = 0.3 + rng.NormFloat64()*0.04
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
	}
	ds, err := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := surf.Open(ds, surf.Config{
		FilterColumns: []string{"x", "y"},
		Statistic:     surf.Count,
		UseGridIndex:  true,
	})
	if err != nil {
		log.Fatal(err)
	}
	wl, err := eng.GenerateWorkloadContext(ctx, 3000, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.TrainSurrogateContext(ctx, wl, surf.TrainOptions{}); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- server.New(eng).Serve(ctx, l) }()
	base := "http://" + l.Addr().String()
	fmt.Println("server listening on", base)

	// 2. Liveness and surrogate status.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	var health struct {
		Status    string   `json:"status"`
		Surrogate bool     `json:"surrogate"`
		Statistic string   `json:"statistic"`
		Filters   []string `json:"filter_columns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("healthz: %s, surrogate=%v (%s over %v)\n\n",
		health.Status, health.Surrogate, health.Statistic, health.Filters)

	// 3. One blocking query over HTTP. MinSideFrac keeps the size
	// regularizer from shrinking regions below the scale the
	// surrogate was trained on.
	query := surf.Query{Threshold: 250, Above: true, MaxRegions: 3, Seed: 7, MinSideFrac: 0.05}
	body, _ := json.Marshal(query)
	resp, err = http.Post(base+"/v1/find", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("find: HTTP %d", resp.StatusCode)
	}
	var res surf.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("POST /v1/find: %d regions, %.0f%% verified, %.2fs\n",
		len(res.Regions), res.ComplianceRate*100, res.ElapsedSeconds)
	for i, r := range res.Regions {
		fmt.Printf("  region %d: x in [%.3f, %.3f], y in [%.3f, %.3f], estimate %.0f\n",
			i, r.Min[0], r.Max[0], r.Min[1], r.Max[1], r.Estimate)
	}

	// 4. The query with a new seed as a progressive SSE stream. Step
	// 3's query is in the engine's result cache, so streaming it would
	// send only the done event.
	query.Seed = 8
	body, _ = json.Marshal(query)
	fmt.Println("\nGET /v1/stream:")
	stream, err := http.Get(base + "/v1/stream?q=" + url.QueryEscape(string(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		ev, err := surf.UnmarshalEvent([]byte(strings.TrimPrefix(line, "data: ")))
		if err != nil {
			log.Fatal(err)
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

	// Graceful shutdown: cancel the serve context and wait.
	cancel()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver shut down cleanly")
}
