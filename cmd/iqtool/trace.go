package main

// The -trace modes produce and validate Perfetto-loadable solve traces.
//
// -trace FILE runs a demo Min-Cost solve locally under a Trace and writes
// the span tree as Chrome trace_event JSON — the quickest way to look at
// the engine's execution profile without standing up a server.
//
// -trace-server URL drives a live iqserver end to end: load a demo dataset,
// issue a solve with capture requested (X-IQ-Trace: 1), download the
// resulting trace from /debug/traces?id=, and validate it. ci.sh runs this
// against a throwaway server (scripts/tracecheck.sh) so a broken exporter,
// a missing span, or a flight-recorder regression fails the build.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"iq"
	"iq/internal/dataset"
	"iq/internal/obs"
)

// traceSpanNames are the engine stages a demo Min-Cost solve must record;
// depth 3 is the solve → round → probe nesting.
var traceSpanNames = []string{"solve/mincost", "round", "probe", "eval", "thresholds"}

const traceMinDepth = 3

// demoWorkload generates the deterministic demo dataset the trace modes
// solve against.
func demoWorkload(seed int64) ([]iq.Vector, []iq.Query) {
	rng := rand.New(rand.NewSource(seed))
	objsRaw := dataset.Objects(dataset.Independent, 200, 3, rng)
	objs := make([]iq.Vector, len(objsRaw))
	for i, o := range objsRaw {
		objs[i] = iq.Vector(o)
	}
	return objs, dataset.UNQueries(80, 3, 5, true, rng)
}

// traceLocal runs the demo solve in-process under a trace and writes the
// trace_event JSON to path, validating it first.
func traceLocal(path string, seed int64) error {
	objs, queries := demoWorkload(seed)
	tr := iq.NewTrace("mincost", 0)
	ctx := iq.WithTrace(context.Background(), tr)
	sys, err := iq.NewWithOptionsCtx(ctx, iq.LinearSpace{D: 3}, objs, queries, iq.IndexOptions{})
	if err != nil {
		return err
	}
	res, err := sys.MinCostCtx(ctx, iq.MinCostRequest{Target: 5, Tau: 8, Cost: iq.L2Cost{}})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := iq.WriteTraceEvent(&buf, tr); err != nil {
		return err
	}
	parsed, err := obs.ValidateTraceEvent(buf.Bytes(), traceSpanNames, traceMinDepth)
	if err != nil {
		return fmt.Errorf("generated trace invalid: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("traced local solve (hits=%d, rounds=%d): %d events, depth %d -> %s\n",
		res.Hits, res.Stats.Rounds, parsed.Events, parsed.MaxDepth, path)
	return nil
}

// traceServer drives a live iqserver: load, traced solve, download, validate.
// The initial load retries until the server is reachable, mirroring the
// -scrape-metrics bootstrap.
func traceServer(baseURL, path string, seed int64, timeout time.Duration) error {
	objs, queries := demoWorkload(seed)
	type queryWire struct {
		ID    int       `json:"id"`
		K     int       `json:"k"`
		Point iq.Vector `json:"point"`
	}
	loadBody := struct {
		Objects []iq.Vector `json:"objects"`
		Queries []queryWire `json:"queries"`
	}{Objects: objs}
	for _, q := range queries {
		loadBody.Queries = append(loadBody.Queries, queryWire{ID: q.ID, K: q.K, Point: q.Point})
	}
	payload, err := json.Marshal(loadBody)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}

	// Load, retrying while the server comes up.
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready within %s: %w", timeout, lastErr)
		}
		resp, err := client.Post(baseURL+"/v1/load", "application/json", bytes.NewReader(payload))
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			lastErr = fmt.Errorf("load status %d: %s", resp.StatusCode, body)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Traced solve.
	req, err := http.NewRequest("POST", baseURL+"/v1/mincost",
		bytes.NewReader([]byte(`{"target":5,"tau":8}`)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-IQ-Trace", "1")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("solve status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-IQ-Trace-ID")
	if id == "" {
		return fmt.Errorf("traced solve returned no X-IQ-Trace-ID header")
	}

	// The flight recorder must list the capture.
	resp, err = client.Get(baseURL + "/debug/traces")
	if err != nil {
		return err
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/traces status %d", resp.StatusCode)
	}
	if !bytes.Contains(page, []byte(id)) {
		return fmt.Errorf("/debug/traces does not list capture %s", id)
	}

	// Download and validate the trace_event JSON.
	resp, err = client.Get(baseURL + "/debug/traces?id=" + id)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace download status %d: %s", resp.StatusCode, data)
	}
	parsed, err := obs.ValidateTraceEvent(data, traceSpanNames, traceMinDepth)
	if err != nil {
		return fmt.Errorf("downloaded trace invalid: %w", err)
	}
	if parsed.TraceID != id {
		return fmt.Errorf("downloaded trace id %q, want %q", parsed.TraceID, id)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("traced server solve %s: %d events, depth %d -> %s\n",
		id, parsed.Events, parsed.MaxDepth, path)
	return nil
}
