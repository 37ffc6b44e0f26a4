package iq

// Parallel-probe correctness property test: a solve with Workers > 1 must be
// BIT-identical to the serial oracle — same strategies, costs, hit counts,
// iteration/evaluation counts, assigned indices, error strings, and epochs —
// across mutation-interleaved sequences. The test scripts a deterministic
// workload of solves, reads, and writes, renders every outcome into a
// transcript, and diffs the transcripts verbatim.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"iq/internal/baseline"
	"iq/internal/core"
	"iq/internal/vec"
)

// fixtureData generates one seed's deterministic workload.
func fixtureData(seed int64) ([]Vector, []Query) {
	rng := rand.New(rand.NewSource(seed))
	const n, m = 60, 160
	objects := make([]Vector, n)
	for i := range objects {
		objects[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	queries := make([]Query, m)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1 + rng.Intn(4),
			Point: Vector{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}}
	}
	return objects, queries
}

// newFixture builds one seed's System. opts.Shards is ignored by the engine;
// tests that set it check that it stays ignored.
func newFixture(t *testing.T, seed int64, opts IndexOptions) *System {
	t.Helper()
	objects, queries := fixtureData(seed)
	sys, err := NewWithOptions(LinearSpace{D: 3}, objects, queries, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return sys
}

// runScript drives one System through the scripted solve/mutate
// sequence and renders every observable outcome. Everything the script does
// is derived from the seed and from values the System itself returned, so
// two bit-identical engines produce byte-identical transcripts.
func runScript(t *testing.T, sys *System, seed int64, workers int) []string {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed * 31))
	var log []string
	add := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	record := func(tag string, target int64, res *Result, err error) {
		if err != nil {
			add("%s err=%v", tag, err)
			return
		}
		checkBruteForce(t, sys, tag, int(target), res)
		add("%s strat=%v cost=%v hits=%d base=%d iter=%d evals=%d",
			tag, res.Strategy, res.Cost, res.Hits, res.BaseHits, res.Iterations, res.Evaluations)
	}

	for round := 0; round < 3; round++ {
		target := (seed*7 + int64(round)*13) % int64(sys.NumObjects())
		h0, err := sys.HitsCtx(ctx, int(target))
		add("r%d hits(%d)=%d err=%v", round, target, h0, err)

		mc, err := sys.MinCostCtx(ctx, MinCostRequest{
			Target: int(target), Tau: h0 + 4 + round, Cost: L2Cost{}, Workers: workers})
		record(fmt.Sprintf("r%d mincost", round), target, mc, err)

		mh, err := sys.MaxHitCtx(ctx, MaxHitRequest{
			Target: int(target), Budget: 0.3 + 0.25*float64(round), Cost: L2Cost{}, Workers: workers})
		record(fmt.Sprintf("r%d maxhit", round), target, mh, err)

		if mh != nil {
			es, err := sys.EvaluateStrategyCtx(ctx, int(target), mh.Strategy)
			add("r%d evalstrat=%d err=%v", round, es, err)
		}
		probe := Query{K: 3, Point: Vector{0.2 + 0.2*float64(round), 0.5, 0.3}}
		add("r%d evaluate=%v", round, sys.Evaluate(probe))

		// Mutations between solve rounds: commit the MaxHit strategy, grow
		// the workload, shrink it, and push one atomic batch.
		if mh != nil {
			n, err := sys.CommitAndCount(int(target), mh.Strategy)
			add("r%d commit n=%d err=%v epoch=%d", round, n, err, sys.Epoch())
		}
		qid, err := sys.AddQuery(Query{ID: 9000 + round, K: 2,
			Point: Vector{rng.Float64(), rng.Float64(), rng.Float64()}})
		add("r%d addquery id=%d err=%v epoch=%d", round, qid, err, sys.Epoch())
		oid, err := sys.AddObject(Vector{rng.Float64(), rng.Float64(), rng.Float64()})
		add("r%d addobject id=%d err=%v epoch=%d", round, oid, err, sys.Epoch())
		rq := rng.Intn(sys.NumQueries())
		add("r%d removequery(%d) err=%v epoch=%d", round, rq, sys.RemoveQuery(rq), sys.Epoch())
		if oid > 0 {
			add("r%d removeobject(%d) err=%v epoch=%d", round, oid, sys.RemoveObject(oid), sys.Epoch())
		}
		results, err := sys.ApplyBatch([]Mutation{
			{Commit: &CommitMutation{Target: int(target), Strategy: Vector{-0.01, -0.01, -0.01}}},
			{AddQuery: &AddQueryMutation{Query: Query{ID: 9500 + round, K: 3,
				Point: Vector{rng.Float64(), rng.Float64(), rng.Float64()}}}},
			{RemoveQuery: &RemoveQueryMutation{Index: rng.Intn(sys.NumQueries())}},
		})
		add("r%d batch res=%v err=%v epoch=%d", round, results, err, sys.Epoch())
	}

	// Error paths must match verbatim too.
	_, err := sys.MinCost(MinCostRequest{Target: 0, Tau: sys.NumQueries() + 1, Cost: L2Cost{}})
	add("err tau-too-big=%v unreachable=%v", err, errors.Is(err, ErrGoalUnreachable))
	_, err = sys.MinCost(MinCostRequest{Target: 0, Tau: -1, Cost: L2Cost{}})
	add("err neg-tau=%v", err)
	_, err = sys.MaxHit(MaxHitRequest{Target: -1, Budget: 1, Cost: L2Cost{}})
	add("err bad-target=%v", err)
	add("err bad-remove=%v", sys.RemoveQuery(sys.NumQueries()+5))
	add("err bad-update=%v", sys.Commit(sys.NumObjects()+3, Vector{0, 0, 0}))
	_, err = sys.ApplyBatch([]Mutation{{}})
	add("err empty-mut=%v", err)
	add("final epoch=%d nq=%d nobj=%d", sys.Epoch(), sys.NumQueries(), sys.NumObjects())
	return log
}

// checkBruteForce recounts a successful solve's BaseHits and Hits over the
// System's current workload by re-ranking every query (baseline.BruteForce):
// an oracle independent of ESE and of the threshold counter every worker
// count shares.
func checkBruteForce(t *testing.T, sys *System, tag string, target int, res *Result) {
	t.Helper()
	w := sys.Workload()
	bf := baseline.BruteForce{W: w}
	base, err := bf.Hits(w.Attrs(target), target)
	if err != nil {
		t.Fatalf("%s: brute-force base recount: %v", tag, err)
	}
	hits, err := bf.Hits(vec.Add(w.Attrs(target), res.Strategy), target)
	if err != nil {
		t.Fatalf("%s: brute-force recount: %v", tag, err)
	}
	if res.BaseHits != base || res.Hits != hits {
		t.Errorf("%s: solve reports base=%d hits=%d, brute force base=%d hits=%d",
			tag, res.BaseHits, res.Hits, base, hits)
	}
}

// TestShardScriptOneShardWorkers completes the brute-force coverage of the
// transcript: TestShardedBitIdentity runs it serially and at workers
// {2,4,8} on Systems built with the (ignored) Shards option; this adds 4
// workers on a System built without it. Skipped in -short mode, which the
// race pass uses: the transcript already runs 20 times there under
// TestShardedBitIdentity.
func TestShardScriptOneShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the extra transcript configuration in -short mode")
	}
	for seed := int64(1); seed <= 5; seed++ {
		runScript(t, newFixture(t, seed, IndexOptions{}), seed, 4)
	}
}

// TestOneShardOwnsWorkload pins the one-index layout's invariant, whatever
// the Shards option says: the epoch's index is built over, and mutates, the
// System's workload itself, so there is no second copy a mutation could be
// applied to twice.
func TestOneShardOwnsWorkload(t *testing.T) {
	sys := newFixture(t, 1, IndexOptions{Shards: 4})
	check := func(step string, sys *System) {
		t.Helper()
		if sys.Index() == nil || sys.Index().Workload() != sys.Workload() {
			t.Fatalf("%s: the index does not hold the System's workload", step)
		}
	}
	check("construction", sys)
	if err := sys.Commit(1, Vector{-0.01, 0, 0}); err != nil {
		t.Fatal(err)
	}
	check("Commit", sys)
	if _, err := sys.CommitAndCount(1, Vector{0, -0.01, 0}); err != nil {
		t.Fatal(err)
	}
	check("CommitAndCount", sys)
	n := sys.NumObjects()
	oid, err := sys.AddObject(Vector{0.3, 0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	check("AddObject", sys)
	if oid != n || sys.NumObjects() != n+1 {
		t.Fatalf("AddObject assigned %d with %d objects, want %d with %d", oid, sys.NumObjects(), n, n+1)
	}
	if err := sys.RemoveObject(oid); err != nil {
		t.Fatal(err)
	}
	check("RemoveObject", sys)
	m := sys.NumQueries()
	qid, err := sys.AddQuery(Query{ID: 700, K: 2, Point: Vector{0.4, 0.3, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	check("AddQuery", sys)
	if qid != m || sys.NumQueries() != m+1 {
		t.Fatalf("AddQuery assigned %d with %d queries, want %d with %d", qid, sys.NumQueries(), m, m+1)
	}
	if err := sys.RemoveQuery(qid); err != nil {
		t.Fatal(err)
	}
	check("RemoveQuery", sys)
	if _, err := sys.ApplyBatch([]Mutation{
		{AddObject: &AddObjectMutation{Attrs: Vector{0.2, 0.2, 0.2}}},
		{AddQuery: &AddQueryMutation{Query: Query{ID: 701, K: 1, Point: Vector{0.3, 0.3, 0.4}}}},
		{RemoveQuery: &RemoveQueryMutation{Index: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	check("ApplyBatch", sys)
	if sys.NumObjects() != n+2 || sys.NumQueries() != m+2 {
		t.Fatalf("after ApplyBatch: %d objects, %d queries; want %d, %d",
			sys.NumObjects(), sys.NumQueries(), n+2, m+2)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("Save/Load", got)
}

// TestShardedBitIdentity is the parallel-probe property: 5 seeds × workers
// {2,4,8}, every transcript identical to the serial oracle's. Each parallel
// run's System is built with Shards set to its worker count, which the
// engine ignores, so the test also holds old callers that still set it to
// the same answers. It runs under -short, so the race pass covers the
// fan-out's shared slot counter.
func TestShardedBitIdentity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		oracle := runScript(t, newFixture(t, seed, IndexOptions{}), seed, 1)
		for _, workers := range []int{2, 4, 8} {
			got := runScript(t, newFixture(t, seed, IndexOptions{Shards: workers}), seed, workers)
			if len(got) != len(oracle) {
				t.Fatalf("seed %d workers %d: transcript length %d, oracle %d",
					seed, workers, len(got), len(oracle))
			}
			for i := range got {
				if got[i] != oracle[i] {
					t.Errorf("seed %d workers %d: line %d diverges\n  parallel: %s\n  oracle:   %s",
						seed, workers, i, got[i], oracle[i])
				}
			}
			if t.Failed() {
				return // one diverging config prints enough context
			}
		}
	}
}

// TestShardedCancellationParity cancels a solve mid-candidate-fan-out via
// the fault-injection hook, on Systems built with and without the (ignored)
// Shards option and at several worker counts: every solve must stop
// promptly, discard its partial result, and leave the epoch untouched.
// Probe hooks fire inside the fan-out's worker goroutines, so this also
// exercises cancellation propagation through the slot counter.
func TestShardedCancellationParity(t *testing.T) {
	for _, shards := range []int{0, 4} {
		for _, workers := range []int{1, 2, 4} {
			sys := newFixture(t, 3, IndexOptions{Shards: shards})
			epoch := sys.Epoch()
			ctx, cancel := context.WithCancel(context.Background())
			var probes atomic.Int32
			restore := core.SetIterationHook(func(op string, _ int) {
				if op == "probe" && probes.Add(1) == 40 {
					cancel()
				}
			})
			h0, err := sys.Hits(0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.MinCostCtx(ctx, MinCostRequest{Target: 0, Tau: h0 + 10, Cost: L2Cost{}, Workers: workers})
			restore()
			cancel()
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("shards %d workers %d: err=%v, want ErrCanceled wrapping context.Canceled", shards, workers, err)
			}
			if res != nil {
				t.Fatalf("shards %d workers %d: partial result %+v not discarded", shards, workers, res)
			}
			if sys.Epoch() != epoch {
				t.Fatalf("shards %d workers %d: epoch moved %d -> %d on a cancelled solve", shards, workers, epoch, sys.Epoch())
			}
		}
	}
}

// TestShardedSnapshotRoundTrip saves a mutated System built with Shards: 4
// and reloads it: the snapshot carries the construction options, and the
// restored System must come back as one index at the saved epoch, answering
// identically.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	sys := newFixture(t, 4, IndexOptions{Shards: 4})
	if _, err := sys.AddQuery(Query{ID: 901, K: 2, Point: Vector{0.4, 0.3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveQuery(5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(1, Vector{-0.02, -0.01, 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index() == nil || got.IndexStats().Queries != sys.IndexStats().Queries {
		t.Fatalf("restored index %v with stats %+v, want one index with %+v",
			got.Index(), got.IndexStats(), sys.IndexStats())
	}
	if got.Epoch() != sys.Epoch() {
		t.Fatalf("restored epoch %d, want %d", got.Epoch(), sys.Epoch())
	}
	for _, target := range []int{1, 7, 20} {
		want, err := sys.MinCost(MinCostRequest{Target: target, Tau: 8, Cost: L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.MinCost(MinCostRequest{Target: target, Tau: 8, Cost: L2Cost{}})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want.Strategy) != fmt.Sprint(have.Strategy) || want.Hits != have.Hits || want.Cost != have.Cost {
			t.Fatalf("target %d: restored solve diverges: %v/%d vs %v/%d",
				target, have.Strategy, have.Hits, want.Strategy, want.Hits)
		}
	}
}

// TestShardedSurface: a System built with Shards: 4 is one index, so the
// solvers a sharded engine refused (combinatorial, exhaustive) answer
// exactly as on a System built without it, and the pooled SolveBatch answers
// every item in item order, bit-identical to solving the items one by one.
func TestShardedSurface(t *testing.T) {
	sys := newFixture(t, 2, IndexOptions{Shards: 4})
	plain := newFixture(t, 2, IndexOptions{})
	if st := sys.IndexStats(); st != plain.IndexStats() {
		t.Fatalf("IndexStats() = %+v, want %+v", st, plain.IndexStats())
	}
	specs := []TargetSpec{{Target: 0, Cost: L2Cost{}}, {Target: 3, Cost: L2Cost{}}}
	multi, err := sys.MinCostMulti(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.MinCostMulti(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(multi.Strategies, multi.TotalCost, multi.TotalHits) != fmt.Sprint(want.Strategies, want.TotalCost, want.TotalHits) {
		t.Fatalf("MinCostMulti = %+v, want %+v", multi, want)
	}
	// The exhaustive solver needs a tiny instance.
	objects, queries := fixtureData(2)
	var tiny [2]*System
	for i, opts := range []IndexOptions{{Shards: 4}, {}} {
		if tiny[i], err = NewWithOptions(LinearSpace{D: 3}, objects[:8], queries[:10], opts); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := tiny[0].MaxHitExhaustive(MaxHitRequest{Target: 0, Budget: 0.3, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	exWant, err := tiny[1].MaxHitExhaustive(MaxHitRequest{Target: 0, Budget: 0.3, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ex.Strategy, ex.Cost, ex.Hits) != fmt.Sprint(exWant.Strategy, exWant.Cost, exWant.Hits) {
		t.Fatalf("MaxHitExhaustive = %+v, want %+v", ex, exWant)
	}

	items := make([]BatchItem, 16)
	for i := range items {
		items[i] = BatchItem{MinCost: &MinCostRequest{Target: i % 5, Tau: 1 + i%3, Cost: L2Cost{}}}
	}
	got := sys.SolveBatch(items)
	if len(got) != len(items) {
		t.Fatalf("SolveBatch returned %d results for %d items", len(got), len(items))
	}
	for i, it := range items {
		want, err := sys.MinCostCtx(context.Background(), *it.MinCost)
		if (err == nil) != (got[i].Err == nil) {
			t.Fatalf("item %d: pooled err=%v, single err=%v", i, got[i].Err, err)
		}
		if err != nil {
			continue
		}
		have := got[i].Result
		if fmt.Sprint(have.Strategy) != fmt.Sprint(want.Strategy) || have.Cost != want.Cost ||
			have.Hits != want.Hits || have.Iterations != want.Iterations {
			t.Fatalf("item %d: pooled %v/%v/%d, single %v/%v/%d",
				i, have.Strategy, have.Cost, have.Hits, want.Strategy, want.Cost, want.Hits)
		}
	}
}
