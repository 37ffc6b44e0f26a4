package iq

// Cross-shard correctness property test: the sharded engine must be
// BIT-identical to the 1-shard oracle — same strategies, costs, hit counts,
// iteration/evaluation counts, assigned indices, error strings, and epochs —
// at every shard count and worker count, across mutation-interleaved
// sequences. The test scripts a deterministic workload of solves, reads, and
// writes, renders every outcome into a transcript, and diffs the transcripts
// verbatim.

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

// shardFixtureData generates one seed's deterministic workload.
func shardFixtureData(seed int64) ([]Vector, []Query) {
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

func newShardFixture(t *testing.T, seed int64, shards int) *System {
	t.Helper()
	objects, queries := shardFixtureData(seed)
	opts := IndexOptions{}
	if shards > 1 {
		opts.Shards = shards
	}
	sys, err := NewWithOptions(LinearSpace{D: 3}, objects, queries, opts)
	if err != nil {
		t.Fatalf("seed %d shards %d: %v", seed, shards, err)
	}
	return sys
}

// runShardScript drives one System through the scripted solve/mutate
// sequence and renders every observable outcome. Everything the script does
// is derived from the seed and from values the System itself returned, so
// two bit-identical engines produce byte-identical transcripts.
func runShardScript(t *testing.T, sys *System, seed int64, workers int) []string {
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
// an oracle independent of ESE and of the solve coordinator, which every
// shard count shares.
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
// transcript: TestShardedBitIdentity runs it at 1 shard × 1 worker and at
// 2, 4, and 8 shards × 1 and 4 workers; this adds 1 shard × 4 workers.
// Skipped in -short mode, which the race pass uses: the transcript already
// runs 35 times there under TestShardedBitIdentity.
func TestShardScriptOneShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the extra transcript configuration in -short mode")
	}
	for seed := int64(1); seed <= 5; seed++ {
		runShardScript(t, newShardFixture(t, seed, 1), seed, 4)
	}
}

// TestOneShardOwnsWorkload pins the one-shard layout's invariant: its lone
// index is built over, and mutates, the System's global workload itself, so
// there is no second copy a mutation could be applied to twice.
func TestOneShardOwnsWorkload(t *testing.T) {
	objects, queries := shardFixtureData(1)
	sys, err := NewWithOptions(LinearSpace{D: 3}, objects, queries, IndexOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, sys *System) {
		t.Helper()
		if sys.Index() == nil || sys.Index().Workload() != sys.Workload() {
			t.Fatalf("%s: the one shard's index does not hold the global workload", step)
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

// TestShardedBitIdentity is the tentpole property: 5 seeds × shards {2,4,8}
// × workers {1,4}, every transcript identical to the 1-shard oracle's.
func TestShardedBitIdentity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		oracle := runShardScript(t, newShardFixture(t, seed, 1), seed, 1)
		for _, shards := range []int{2, 4, 8} {
			for _, workers := range []int{1, 4} {
				got := runShardScript(t, newShardFixture(t, seed, shards), seed, workers)
				if len(got) != len(oracle) {
					t.Fatalf("seed %d shards %d workers %d: transcript length %d, oracle %d",
						seed, shards, workers, len(got), len(oracle))
				}
				for i := range got {
					if got[i] != oracle[i] {
						t.Errorf("seed %d shards %d workers %d: line %d diverges\n  sharded: %s\n  oracle:  %s",
							seed, shards, workers, i, got[i], oracle[i])
					}
				}
				if t.Failed() {
					return // one diverging config prints enough context
				}
			}
		}
	}
}

// TestShardedCancellationParity cancels a solve mid-candidate-fan-out via
// the fault-injection hook: the sharded engine must stop promptly, discard
// its partial result, and leave the epoch untouched — exactly like the
// oracle. Probe hooks fire inside the per-shard scatter goroutines, so this
// also exercises cancellation propagation through the scatter join.
func TestShardedCancellationParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sys := newShardFixture(t, 3, shards)
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
		res, err := sys.MinCostCtx(ctx, MinCostRequest{Target: 0, Tau: h0 + 10, Cost: L2Cost{}, Workers: 2})
		restore()
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("shards %d: err=%v, want ErrCanceled wrapping context.Canceled", shards, err)
		}
		if res != nil {
			t.Fatalf("shards %d: partial result %+v not discarded", shards, res)
		}
		if sys.Epoch() != epoch {
			t.Fatalf("shards %d: epoch moved %d -> %d on a cancelled solve", shards, epoch, sys.Epoch())
		}
	}
}

// TestShardedSnapshotRoundTrip saves a mutated sharded System and reloads
// it: the snapshot now carries the construction options, so the restored
// System must come back sharded, at the saved epoch, answering identically.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	sys := newShardFixture(t, 4, 4)
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
	if got.Shards() != 4 {
		t.Fatalf("restored Shards() = %d, want 4", got.Shards())
	}
	if got.Epoch() != sys.Epoch() {
		t.Fatalf("restored epoch %d, want %d", got.Epoch(), sys.Epoch())
	}
	want, err := sys.MinCost(MinCostRequest{Target: 1, Tau: 8, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.MinCost(MinCostRequest{Target: 1, Tau: 8, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want.Strategy) != fmt.Sprint(have.Strategy) || want.Hits != have.Hits {
		t.Fatalf("restored solve diverges: %v/%d vs %v/%d",
			have.Strategy, have.Hits, want.Strategy, want.Hits)
	}
}

// TestShardedSurface covers the sharded-only facade surface: layout
// accessors, stats aggregation, batch parallelism knob, and the explicit
// unsupported-solver errors.
func TestShardedSurface(t *testing.T) {
	sys := newShardFixture(t, 2, 4)
	if got := sys.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	infos := sys.ShardInfos()
	if len(infos) != 4 {
		t.Fatalf("ShardInfos() has %d entries, want 4", len(infos))
	}
	totalQ := 0
	for _, in := range infos {
		totalQ += in.Queries
	}
	if totalQ != sys.NumQueries() {
		t.Fatalf("shard queries sum to %d, want %d", totalQ, sys.NumQueries())
	}
	if cuts := sys.ShardPlan(); len(cuts) != 3 {
		t.Fatalf("ShardPlan() = %v, want 3 cuts", cuts)
	}
	if sys.Index() != nil {
		t.Fatal("Index() must be nil on a sharded System")
	}
	if st := sys.IndexStats(); st.Queries != sys.NumQueries() {
		t.Fatalf("IndexStats().Queries = %d, want %d", st.Queries, sys.NumQueries())
	}
	if _, err := sys.MinCostMulti([]TargetSpec{{Target: 0, Cost: L2Cost{}}}, 1); err == nil {
		t.Fatal("MinCostMulti must fail on a sharded System")
	}
	if _, err := sys.MaxHitExhaustive(MaxHitRequest{Target: 0, Budget: 1, Cost: L2Cost{}}); err == nil {
		t.Fatal("MaxHitExhaustive must fail on a sharded System")
	}

	// Unsharded System reports the degenerate layout.
	mono := newShardFixture(t, 2, 1)
	if mono.Shards() != 1 || mono.ShardInfos() != nil || mono.ShardPlan() != nil {
		t.Fatal("unsharded System must report shards=1 with no layout")
	}

	// The batch pool answers in item order at any parallelism.
	items := make([]BatchItem, 8)
	for i := range items {
		tau := 1 + i%3
		items[i] = BatchItem{MinCost: &MinCostRequest{Target: i % 4, Tau: tau, Cost: L2Cost{}}}
	}
	prev := SetBatchParallelism(1)
	seq := sys.SolveBatch(items)
	SetBatchParallelism(4)
	par := sys.SolveBatch(items)
	SetBatchParallelism(prev)
	for i := range seq {
		if (seq[i].Err == nil) != (par[i].Err == nil) {
			t.Fatalf("item %d: sequential err=%v parallel err=%v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Err == nil && fmt.Sprint(seq[i].Result.Strategy) != fmt.Sprint(par[i].Result.Strategy) {
			t.Fatalf("item %d: sequential strategy %v != parallel %v",
				i, seq[i].Result.Strategy, par[i].Result.Strategy)
		}
	}
}
