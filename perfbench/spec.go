package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the run reads: which metric
// names it must print, with their units.
type benchmarkFile struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the run reads: the fixed per-workload
// settings. The rest of the file records each workload's inputs and reasons
// and what each metric should move.
type spec struct {
	Workloads map[string]workloadSpec `json:"workloads"`
	// PerLayer records, for each per-layer metric, what it should move.
	PerLayer map[string]json.RawMessage `json:"per_layer"`
}

type workloadSpec struct {
	// NominalRPS is the offered rate of the timed phase.
	NominalRPS float64 `json:"nominal_rps"`
	// TailPercentile is the fixed tail reported as <op>_tail_ms.
	TailPercentile float64 `json:"tail_percentile"`
	// LatencyLimitMS is the per-op tail limit max_rps is searched against.
	LatencyLimitMS map[string]float64 `json:"latency_limit_ms"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// checkPerLayer requires spec.json to record every per-layer metric
// BENCHMARK.json declares, and no other.
func checkPerLayer(sp *spec, bf *benchmarkFile) error {
	declared := map[string]bool{}
	for _, d := range bf.PerLayer {
		declared[d.Name] = true
		if _, ok := sp.PerLayer[d.Name]; !ok {
			return fmt.Errorf("spec.json per_layer has no record of %s", d.Name)
		}
	}
	for name := range sp.PerLayer {
		if !declared[name] {
			return fmt.Errorf("spec.json per_layer records %s, which BENCHMARK.json does not declare", name)
		}
	}
	return nil
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
