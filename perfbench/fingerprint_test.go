package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareRefusesMismatchedFingerprints(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		b, err := json.Marshal(savedResult{Workload: "cold-solve", Fingerprint: fp,
			Values: map[string]float64{"mincost_p50_ms": 50}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fp := takeFingerprint(1, false)
	a := write("a.json", fp)
	if err := compareResults([]string{a, write("same.json", fp)}); err != nil {
		t.Fatalf("equal fingerprints refused: %v", err)
	}
	for name, change := range map[string]func(*fingerprint){
		"nproc":  func(f *fingerprint) { f.NProc++ },
		"go":     func(f *fingerprint) { f.GoVersion = "go0" },
		"cpu":    func(f *fingerprint) { f.CPUModel = "other" },
		"kernel": func(f *fingerprint) { f.Kernel = "other" },
		"fsync":  func(f *fingerprint) { f.Fsync = "always" },
		"seed":   func(f *fingerprint) { f.Seed = 2 },
	} {
		other := fp
		change(&other)
		err := compareResults([]string{a, write(name+".json", other)})
		if err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
			t.Errorf("%s differs: got %v, want a refusal", name, err)
		}
	}
}
