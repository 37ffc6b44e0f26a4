package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// fingerprint names the machine and settings a result was measured under.
// Two results are comparable only when their fingerprints are equal.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Fsync      string `json:"fsync"`
	Seed       int64  `json:"seed"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s cpu=%q kernel=%s fsync=%s seed=%d",
		f.NProc, f.GOMAXPROCS, f.GoVersion, f.CPUModel, f.Kernel, f.Fsync, f.Seed)
}

// takeFingerprint reads the machine's identity. The benchmark binary and
// iqserver are built by the same toolchain and neither sets GOMAXPROCS, so
// this process's values are the server's.
func takeFingerprint(seed int64, durable bool) fingerprint {
	f := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Fsync: "none (in memory)", Seed: seed}
	if durable {
		f.Fsync = "always"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	return f
}

// cpuTicks reads the aggregate cpu line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq, steal, ... in clock ticks.
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []int64
	for _, f := range strings.Fields(line)[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, n)
	}
	return out
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// between two cpuTicks readings: on a shared host, time the benchmark's
// processes wanted and did not get.
func stealPct(before, after []int64) float64 {
	if len(before) < 8 || len(after) < 8 {
		return 0
	}
	var total int64
	for i := range before {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(after[7]-before[7]) / float64(total)
}

// savedResult is the file each run leaves in the work directory, beside
// its trace.
type savedResult struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Rate        float64            `json:"rate_rps"`
	Seconds     float64            `json:"seconds"`
	Values      map[string]float64 `json:"values"`
	Result      result             `json:"result"`
	Slowest     []slowRequest      `json:"slowest,omitempty"`
}

func (rs *runState) resultPathFor(trace bool) string {
	return filepath.Join(rs.o.workdir, fmt.Sprintf("result-%s-seed%d-trace%t.json", rs.w.name, rs.o.seed, trace))
}

func (rs *runState) saveResult(res result) error {
	vals := map[string]float64{}
	for k, v := range rs.values {
		if !isFinite(v) {
			continue
		}
		vals[k] = v
	}
	b, err := json.MarshalIndent(savedResult{Workload: rs.w.name, Trace: rs.o.trace, Fingerprint: rs.fp,
		Rate: rs.o.rate, Seconds: rs.o.seconds, Values: vals, Result: res, Slowest: rs.slowest}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(rs.resultPathFor(rs.o.trace), b, 0o644)
}

// compareResults prints the metrics two saved results share, side by side.
// It refuses results whose fingerprints differ: numbers from different
// machines, fsync policies or seeds say nothing about a code change.
func compareResults(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two result files")
	}
	var rs [2]savedResult
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if rs[0].Fingerprint != rs[1].Fingerprint {
		return fmt.Errorf("refusing to compare: fingerprints differ\n  %s\n  %s", rs[0].Fingerprint, rs[1].Fingerprint)
	}
	if rs[0].Workload != rs[1].Workload {
		return fmt.Errorf("refusing to compare workload %s with %s", rs[0].Workload, rs[1].Workload)
	}
	fmt.Printf("# %s, %s\n", rs[0].Workload, rs[0].Fingerprint)
	var keys []string
	for k := range rs[0].Values {
		if _, ok := rs[1].Values[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		a, b := rs[0].Values[k], rs[1].Values[k]
		change := "n/a"
		if a != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
		}
		fmt.Printf("%-44s %14.6g %14.6g %8s %s\n", k, a, b, change, unitOf(k))
	}
	return nil
}
