// Command perfbench is the repository benchmark. It builds a dataset from a
// seed, drives a real iqserver over HTTP with open-loop traffic, checks every
// answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) of one workload. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh, which builds iqserver and this command first.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workdir   string
	specPath  string
	rate      float64 // overrides the nominal rate (calibration)
	maxRPS    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: cold-solve, warm-repeat, write-mix, or all to run the three in turn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.serverBin, "server", "", "path of the iqserver binary")
	flag.StringVar(&o.workdir, "workdir", "", "directory for server logs, data dirs and result files")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Float64Var(&o.rate, "rate", 0, "offered rate in requests/s (default: the workload's nominal rate)")
	flag.BoolVar(&o.maxRPS, "max-rps", false, "after the timed phase, search the highest rate that meets the latency limits (calibration)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; refuses mismatched fingerprints")
	flag.Parse()
	o.trace = trace == 1
	if *compare {
		if err := compareResults(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = []string{"cold-solve", "warm-repeat", "write-mix"}
	}
	failed := false
	for _, name := range names {
		o.workload = name
		ok, err := run(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		failed = failed || !ok
	}
	if failed {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runState is everything one run measured.
type runState struct {
	o       options
	ws      workloadSpec
	w       *workload
	fp      fingerprint
	dir     string // the run's scratch directory
	dataDir string // data dir of the running server
	// launches counts servers started, to name their data dirs.
	launches int
	// setup is the server's CPU seconds from launch to loaded, per set-up
	// launch; setupWall the wall-clock seconds of the same launches.
	setup     []float64
	setupWall []float64
	warmupS   float64
	reqs      []request
	ph        *phase
	// untraced is, in a traced run, the same schedule replayed without
	// spans on a server set up the same way; it is what the tracing
	// overhead is measured against.
	untraced  *phase
	before    metricSet
	after     metricSet
	rssMB     float64 // median VmRSS of the server over the timed phase
	attempted int
	failed    int
	wrong     []string
	refused   []string        // requests that got no 2xx reply, with what they got
	answers   [][]solveAnswer // per request of ph: decoded solve answers
	slowest   []slowRequest
	notes     []string           // metrics that could not be taken, with the reason
	values    map[string]float64 // every metric computed, by name
}

func run(o options) (bool, error) {
	if o.serverBin == "" || o.workdir == "" {
		return false, errors.New("-server and -workdir are required (run through run.sh)")
	}
	bf, err := loadBenchmarkFile(o.specPath)
	if err != nil {
		return false, err
	}
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	if err := checkPerLayer(sp, bf); err != nil {
		return false, err
	}
	ws, ok := sp.Workloads[o.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(o.workdir, fmt.Sprintf("%s-%d-", o.workload, o.seed))
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	rs := &runState{o: o, ws: ws, w: w, dir: dir, values: map[string]float64{}}
	rs.fp = takeFingerprint(o.seed, w.durable)
	if o.rate == 0 {
		o.rate = ws.NominalRPS
		rs.o.rate = o.rate
	}

	if err := rs.setUp(); err != nil {
		return false, err
	}
	srv, _, err := rs.launch(-1)
	if err != nil {
		return false, err
	}
	defer func() { srv.kill() }()
	if err := rs.warmUp(srv); err != nil {
		return false, err
	}
	rs.values["harness.warmup_s"] = rs.warmupS
	// A traced run measures two phases of half the length each: the
	// schedule untraced, then the same schedule traced on a fresh server.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	n := max(1, int(math.Round(o.rate*seconds)))
	for i := 0; i < n; i++ {
		r, ok := w.next()
		if !ok {
			return false, fmt.Errorf("%s ran out of distinct inputs after %d requests", w.name, i)
		}
		rs.reqs = append(rs.reqs, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var tr *tracer
	if o.trace {
		rs.untraced = runOpenLoop(ctx, srv, rs.reqs, o.rate, nil)
		rs.check(rs.untraced)
		srv.kill()
		if srv, _, err = rs.launch(-1); err != nil {
			return false, err
		}
		if err := rs.warmUp(srv); err != nil {
			return false, err
		}
		tr = newTracer()
	}
	if rs.before, err = srv.scrape(); err != nil {
		return false, err
	}
	ticks := cpuTicks()
	stopRSS := make(chan struct{})
	rss := srv.sampleRSS(100*time.Millisecond, stopRSS)
	rs.ph = runOpenLoop(ctx, srv, rs.reqs, o.rate, tr)
	close(stopRSS)
	rs.rssMB = median(<-rss)
	rs.values["harness.cpu_steal_pct"] = stealPct(ticks, cpuTicks())
	if rs.after, err = srv.scrape(); err != nil {
		return false, err
	}
	if rs.values["server_hwm_mb"], err = srv.procStatus("VmHWM"); err != nil {
		return false, err
	}
	rs.answers = rs.check(rs.ph)
	if o.maxRPS {
		best, err := rs.searchMaxRPS(context.Background(), srv, o.rate)
		if err != nil {
			return false, err
		}
		rs.values["max_rps"] = best
	}
	if w.durable {
		if srv, err = rs.durabilityDrill(srv); err != nil {
			return false, err
		}
	}
	srv.kill()
	if err := rs.setUp(); err != nil {
		return false, err
	}
	rs.computeEndToEnd()
	var names []metricDecl
	if o.trace {
		if err := rs.traceLayers(tr); err != nil {
			return false, err
		}
		names = bf.PerLayer
	} else {
		names = bf.EndToEnd
	}
	return rs.report(names)
}

// serverFlags are the flags a workload launches iqserver with: the defaults,
// plus a data dir under -fsync always for the durable workload.
func (rs *runState) serverFlags(dataDir string) []string {
	if !rs.w.durable {
		return nil
	}
	return []string{"-data-dir", dataDir, "-fsync", "always"}
}

// launch starts a server on a fresh data dir, bound to cpu if cpu >= 0,
// and loads the workload's dataset. It returns the time from process launch
// to the /v1/load 200.
func (rs *runState) launch(cpu int) (*server, time.Duration, error) {
	if rs.dataDir != "" {
		os.RemoveAll(rs.dataDir)
	}
	rs.dataDir = filepath.Join(rs.dir, fmt.Sprintf("data%d", rs.launches))
	rs.launches++
	load := mustJSON(map[string]any{"objects": rs.w.objects, "queries": rs.w.queries})
	t0 := time.Now()
	srv, err := startServer(rs.o.serverBin, filepath.Join(rs.dir, "server.log"), connections, cpu, rs.serverFlags(rs.dataDir)...)
	if err != nil {
		return nil, 0, err
	}
	// A durable server listens while it replays its (empty) WAL and
	// answers 503 until the replay ends; the load is retried until then.
	code, body, err := srv.do(context.Background(), "POST", "/v1/load", load)
	for deadline := t0.Add(20 * time.Second); err == nil && code == http.StatusServiceUnavailable && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
		code, body, err = srv.do(context.Background(), "POST", "/v1/load", load)
	}
	if err != nil || code != 200 {
		srv.kill()
		return nil, 0, fmt.Errorf("/v1/load: status %d, err %v: %s", code, err, body)
	}
	return srv, time.Since(t0), nil
}

// setUp launches and loads the server setups/2 times in a row, each bound
// to one CPU, and stops every server it started. For each launch it records
// the CPU time the server ran from launch to the /v1/load 200 (setup_s) and
// the wall-clock time of the same span. The CPU time leaves out the waits
// for process start and for the disk, which vary more on a host shared with
// other guests. Bound to one CPU, a launch does the same work whether or not
// the other CPUs are free. The servers that serve timed traffic run unbound.
func (rs *runState) setUp() error {
	cpu, err := lastCPU()
	if err != nil {
		return err
	}
	for i := 0; i < setups/2; i++ {
		srv, d, err := rs.launch(cpu)
		if err != nil {
			return err
		}
		c, err := srv.cpuTime()
		srv.kill()
		if err != nil {
			return err
		}
		rs.setup = append(rs.setup, c)
		rs.setupWall = append(rs.setupWall, d.Seconds())
	}
	return nil
}

// warmUp sends the workload's untimed warm-up requests over the run's
// connections. Each must succeed or run out of its deadline (504); the
// deadline misses are counted.
func (rs *runState) warmUp(srv *server) error {
	if len(rs.w.warmup) == 0 {
		return nil
	}
	t0 := time.Now()
	jobs := make(chan request)
	errc := make(chan error, connections)
	var timeouts atomic.Int64
	for c := 0; c < connections; c++ {
		go func() {
			var first error
			for r := range jobs {
				code, body, err := srv.do(context.Background(), "POST", opPaths[r.op], r.body)
				if err == nil && code == http.StatusGatewayTimeout {
					timeouts.Add(1)
					continue
				}
				if first == nil && (err != nil || code != http.StatusOK) {
					first = fmt.Errorf("warm-up %s: status %d, err %v: %s", opNames[r.op], code, err, body)
				}
			}
			errc <- first
		}()
	}
	for _, r := range rs.w.warmup {
		jobs <- r
	}
	close(jobs)
	var err error
	for c := 0; c < connections; c++ {
		if e := <-errc; e != nil && err == nil {
			err = e
		}
	}
	rs.warmupS = time.Since(t0).Seconds()
	rs.values["harness.warmup_timeouts"] += float64(timeouts.Load())
	return err
}

// check decodes every reply of a timed phase and verifies it, after the
// phase. A non-2xx reply, a transport error or a wrong answer fails the
// request. It returns the decoded solve answers, per request.
func (rs *runState) check(ph *phase) [][]solveAnswer {
	var orc *oracle
	if rs.w.exact {
		orc = newOracle(rs.w.objects, rs.w.queries)
	}
	m := len(rs.w.queries)
	answers := make([][]solveAnswer, len(rs.reqs))
	rs.attempted += len(rs.reqs)
	for i, r := range rs.reqs {
		out := ph.outcomes[i]
		if !out.ok() {
			rs.failed++
			rs.refused = append(rs.refused, fmt.Sprintf("request %d (%s, %+v): status %d, err %v, after %.1f ms: %s",
				i, opNames[r.op], r.items, out.status, out.err, ms(out.done-out.sent), bytes.TrimSpace(out.body)))
			continue
		}
		var err error
		answers[i], err = checkOne(orc, m, r, out.body)
		if err != nil {
			rs.failed++
			rs.wrong = append(rs.wrong, fmt.Sprintf("request %d (%s): %v", i, opNames[r.op], err))
		}
	}
	return answers
}

// checkOne verifies one reply and returns its solve answers, if it has any.
func checkOne(orc *oracle, m int, r request, body []byte) ([]solveAnswer, error) {
	switch r.op {
	case opMinCost, opMaxHit, opSolveBatch:
		var answers []solveAnswer
		if r.op == opSolveBatch {
			var br struct {
				Results []solveAnswer `json:"results"`
			}
			if err := json.Unmarshal(body, &br); err != nil {
				return nil, err
			}
			if len(br.Results) != len(r.items) {
				return nil, fmt.Errorf("%d results for %d items", len(br.Results), len(r.items))
			}
			answers = br.Results
		} else {
			var a solveAnswer
			if err := json.Unmarshal(body, &a); err != nil {
				return nil, err
			}
			answers = []solveAnswer{a}
		}
		for k, it := range r.items {
			var err error
			if orc != nil {
				err = orc.checkExact(it, answers[k])
			} else {
				err = checkInvariants(it, answers[k])
			}
			if err != nil {
				return answers, fmt.Errorf("target %d: %w", it.Target, err)
			}
		}
		return answers, nil
	case opEvaluate, opCommit:
		var hr struct {
			Hits *int `json:"hits"`
		}
		if err := json.Unmarshal(body, &hr); err != nil || hr.Hits == nil {
			return nil, fmt.Errorf("reply has no hits: %s", body)
		}
		if r.op == opEvaluate && orc != nil {
			if want := orc.hits(r.target, orc.shifted(r.target, r.strategy)); *hr.Hits != want {
				return nil, fmt.Errorf("evaluate hits %d, brute force %d", *hr.Hits, want)
			}
		}
		if *hr.Hits < 0 || *hr.Hits > m {
			return nil, fmt.Errorf("hits %d outside [0, %d]", *hr.Hits, m)
		}
	case opMutationBatch:
		var br struct {
			Results []struct {
				ID int `json:"id"`
			} `json:"results"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, err
		}
		if len(br.Results) != 4 || br.Epoch == 0 {
			return nil, fmt.Errorf("malformed batch reply: %s", body)
		}
	}
	return nil, nil
}

// opLatencies returns the latencies in ms of every request of op in phase
// ph, with a failed request counted as +Inf so it misses any limit.
func (rs *runState) opLatencies(ph *phase, op int) []float64 {
	var out []float64
	for i, r := range rs.reqs {
		if r.op != op {
			continue
		}
		o := ph.outcomes[i]
		if !o.ok() {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(o.latency()))
	}
	return out
}

// serviceTimes returns the send-to-reply times in ms of the answered
// requests of op: latency without the wait for a connection.
func (rs *runState) serviceTimes(op int) []float64 {
	var out []float64
	for i, r := range rs.reqs {
		if o := rs.ph.outcomes[i]; r.op == op && o.ok() {
			out = append(out, ms(o.done-o.sent))
		}
	}
	return out
}

// minTail is the number of samples a tail percentile needs beyond it.
const minTail = 10

func (rs *runState) computeEndToEnd() {
	v := rs.values
	v["setup_s"] = median(rs.setup)
	v["setup_wall_s"] = median(rs.setupWall)
	v["server_rss_mb"] = rs.rssMB
	v["failed_ratio"] = float64(rs.failed) / float64(rs.attempted)
	lag := make([]float64, len(rs.ph.lag))
	for i, d := range rs.ph.lag {
		lag[i] = ms(d)
	}
	v["harness.lag_ms.p99"] = quantile(lag, 0.99)
	v["harness.backlog_growth"] = rs.ph.backlogGrowth()
	p := rs.ws.TailPercentile / 100
	for op := 0; op < numOps; op++ {
		lat := rs.opLatencies(rs.ph, op)
		if len(lat) == 0 {
			continue
		}
		v[opNames[op]+"_p50_ms"] = median(lat)
		v[opNames[op]+"_service_p50_ms"] = median(rs.serviceTimes(op))
		if float64(len(lat))*(100-rs.ws.TailPercentile)/100 >= minTail {
			v[opNames[op]+"_tail_ms"] = quantile(lat, p)
		} else {
			rs.notes = append(rs.notes, fmt.Sprintf("%s_tail_ms: not reported: %d samples, p%g needs %.0f",
				opNames[op], len(lat), rs.ws.TailPercentile, minTail*100/(100-rs.ws.TailPercentile)))
		}
	}
}

// report prints every metric computed, then the result line with the
// metrics named in BENCHMARK.json for this mode.
func (rs *runState) report(names []metricDecl) (bool, error) {
	fmt.Printf("# workload %s seed %d rate %.3g/s for %.3gs; fingerprint %s\n",
		rs.w.name, rs.o.seed, rs.o.rate, rs.o.seconds, rs.fp)
	for _, set := range []struct {
		name string
		xs   []float64
	}{{"setup_s", rs.setup}, {"setup_wall_s", rs.setupWall}} {
		fmt.Printf("# %s samples:", set.name)
		for _, x := range set.xs {
			fmt.Printf(" %.4f", x)
		}
		fmt.Println()
	}
	fmt.Printf("# attempted %d failed %d; backlog growth %.2f; generator lag p99 %.3f ms; cpu steal %.1f%%\n",
		rs.attempted, rs.failed, rs.ph.backlogGrowth(), rs.values["harness.lag_ms.p99"], rs.values["harness.cpu_steal_pct"])
	for op := 0; op < numOps; op++ {
		if c := len(rs.opLatencies(rs.ph, op)); c > 0 {
			fmt.Printf("# %s: %d requests\n", opNames[op], c)
		}
	}
	keys := make([]string, 0, len(rs.values))
	for k := range rs.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-44s %14.6g %s\n", k, rs.values[k], unitOf(k))
	}
	for _, n := range rs.notes {
		fmt.Println("#", n)
	}
	for _, e := range rs.refused {
		fmt.Println("# FAILED:", e)
	}
	for _, e := range rs.wrong {
		fmt.Println("# WRONG ANSWER:", e)
	}
	res := result{Correct: len(rs.wrong) == 0, Attempted: rs.attempted, Failed: rs.failed,
		Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range names {
		val, ok := rs.values[d.Name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: val, Unit: d.Unit}
	}
	if err := rs.saveResult(res); err != nil {
		return false, err
	}
	if len(missing) > 0 {
		return false, fmt.Errorf("no value for %v on %s", missing, rs.w.name)
	}
	if g := rs.ph.backlogGrowth(); g > connections {
		return false, fmt.Errorf("run invalid: backlog grew by %.1f requests at %.3g/s", g, rs.o.rate)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

func unitOf(name string) string {
	switch {
	case name == "setup_s" || name == "setup_wall_s" || name == "wal.recovery_s" || name == "harness.warmup_s":
		return "s"
	case name == "server_rss_mb" || name == "server_hwm_mb" || name == "runtime.heap_mb":
		return "MiB"
	case name == "max_rps":
		return "1/s"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.Contains(name, "_us."):
		return "us"
	case strings.Contains(name, "ratio") || strings.Contains(name, "efficiency"):
		return "ratio"
	case strings.Contains(name, "_pct"):
		return "%"
	}
	return "count"
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
