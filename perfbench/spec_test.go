package main

import "testing"

// TestPerLayerRecords requires spec.json to record what each per-layer
// metric of BENCHMARK.json should move, and nothing else.
func TestPerLayerRecords(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPerLayer(sp, bf); err != nil {
		t.Fatal(err)
	}
	delete(sp.PerLayer, bf.PerLayer[0].Name)
	if checkPerLayer(sp, bf) == nil {
		t.Fatalf("a missing record of %s was not reported", bf.PerLayer[0].Name)
	}
}
