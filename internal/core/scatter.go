package core

// This file is the coordinator every single-target solve runs through. The
// greedy loops of Algorithms 3 and 4 (mincost.go, maxhit.go) see the
// workload as a list of ShardViews and ask the coordinator for one round of
// candidates at a time. The monolithic engine is the one-view case: a round
// is one generateCandidates call on the caller's goroutine whose slice is
// returned as-is — no scatter goroutine, no flatten copy, no per-shard
// accounting.
//
// Every view contributes one filled threshold vector for the target (see
// cache.go), loaded once when the solve starts. Together they are the
// solve's hit counter: H(p+s) is the sum of the per-view counts, and any
// goroutine may compute it, because the vectors are read-only.
//
// A sharded iq.System partitions the query workload by query-space position
// into N shard indexes (every shard sees all objects, each query lives in
// exactly one shard); with N views a round is:
//
//   scatter — one generateCandidates per shard, concurrently. Each shard
//     probes only its own unhit queries, so the union of per-shard probes is
//     exactly the monolithic round's probe set, and each per-query strategy
//     depends only on (threshold, current strategy, query, cost, bounds) —
//     all shard-independent. Per-shard skybands oversize k past any owned
//     query's K, so thresholds match the monolithic index bit for bit. Each
//     probe counts its hits over every shard's vector, so candidates leave
//     the scatter with global hit counts and no gather pass is needed.
//   select/apply — bestRatio, anti-overshoot, and the fill pass run on the
//     flattened candidates with globalized query indices. All three break
//     ties through (ratio, cost, query) or (cost, query), total orders over
//     unique query indices, so candidate ORDER is irrelevant and the winner
//     equals the monolithic winner. The winner's hit set is fanned back out
//     (one hitSet per shard over the shard-local bitset).
//
// Iteration counting, cancellation checkpoints, and guard thresholds (always
// against the GLOBAL query count) are shared by construction, so results are
// bit-identical at any shard and worker count — the property test in the
// root package holds this line.

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// ShardView is the coordinator's handle on one shard: the shard's index
// (whose workload holds every object but only the shard's queries) and the
// mapping from shard-local query index to global query index. Tombstoned
// queries keep their slots on both sides, so len(GlobalQ) equals the shard
// workload's query count and the GlobalQ values across shards partition
// [0, global query count). A lone view is the whole workload; its GlobalQ
// is never read and may be nil.
type ShardView struct {
	Idx     *subdomain.Index
	GlobalQ []int
}

// shardSolver carries the per-shard state one solve reuses across greedy
// rounds: the threshold vectors (the hit counter), shard-local hit bitsets,
// probe scratch, and (with more than one view) per-shard busy-time
// accounting.
type shardSolver struct {
	views   []ShardView
	target  int
	nq      int // global query count (tombstones included), Σ shard counts
	workers int // per-shard probe fan-out, clamped per round
	thr     hitCounter
	hit     []*bitset.Bits
	rs      []*roundScratch
	busy    []int64 // ns of shard-local work, indexed by shard; nil for one view
}

func newShardSolver(views []ShardView, target int) *shardSolver {
	ss := &shardSolver{views: views, target: target}
	for _, v := range views {
		ss.nq += v.Idx.Workload().NumQueries()
	}
	return ss
}

// charge adds the time since t0 to shard t's busy total (multi-view only).
func (ss *shardSolver) charge(t int, t0 time.Time) {
	if ss.busy != nil {
		ss.busy[t] += time.Since(t0).Nanoseconds()
	}
}

// start validates the request parts every solve shares, loads one filled
// threshold vector per shard, seeds the shard-local base hit sets, and
// returns the zero-strategy result. Every shard workload holds the full
// object table, so shard 0 answers the target checks; every query is owned
// by exactly one shard, so the base hit counts sum to the global one. check
// runs between the shared validation and the threshold fill, in the order
// the solver's error precedence needs.
func (ss *shardSolver) start(ctx context.Context, cost Cost, workers int, rec *recorder, check func() error) (*Result, error) {
	if len(ss.views) == 0 {
		return nil, fmt.Errorf("core: sharded solve with no shards")
	}
	if err := validateCommon(ss.views[0].Idx, ss.target, cost); err != nil {
		return nil, err
	}
	if err := check(); err != nil {
		return nil, err
	}
	n := len(ss.views)
	ss.workers = workers
	ss.thr = make(hitCounter, n)
	ss.hit = make([]*bitset.Bits, n)
	ss.rs = make([]*roundScratch, n)
	base := 0
	for t, v := range ss.views {
		ss.rs[t] = &roundScratch{}
		ss.thr[t] = loadThresholds(ctx, v.Idx, ss.target, rec, ss.rs[t].attribution(rec, v.Idx))
		ss.hit[t] = bitset.New(v.Idx.Workload().NumQueries())
		ss.thr[t].hitSet(v.Idx.Workload().Coeff(ss.target), ss.hit[t])
		base += ss.hit[t].Count()
	}
	if n > 1 {
		ss.busy = make([]int64, n)
	}
	d := len(ss.views[0].Idx.Workload().Attrs(ss.target))
	return &Result{Strategy: vec.New(d), BaseHits: base, Hits: base}, nil
}

// round runs one greedy round's candidate generation and returns the
// candidates with GLOBAL query indices and GLOBAL hit counts. With one view
// the slice aliases that view's roundScratch and is overwritten by the next
// round; with several it is freshly allocated. Strategies inside are
// freshly allocated per probe either way.
func (ss *shardSolver) round(ctx context.Context, cur vec.Vector, cost Cost, bounds *Bounds, rec *recorder) ([]Candidate, error) {
	if len(ss.views) == 1 {
		return generateCandidates(ctx, ss.thr, 0, ss.workers, cur, ss.hit[0], cost, bounds, ss.rs[0], rec)
	}
	n := len(ss.views)
	sctx, ssp := obs.StartSpan(ctx, "scatter")
	ssp.SetAttr("shards", n)
	perShard := make([][]Candidate, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for t := range ss.views {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			t0 := time.Now()
			perShard[t], errs[t] = generateCandidates(sctx, ss.thr, t, ss.workers,
				cur, ss.hit[t], cost, bounds, ss.rs[t], rec)
			ss.charge(t, t0)
		}(t)
	}
	wg.Wait()
	ssp.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Flatten shard-major and globalize query indices. Per-shard slices
	// alias each shard's roundScratch and are dead after this copy.
	var flat []Candidate
	for t, cands := range perShard {
		for _, c := range cands {
			c.Query = ss.views[t].GlobalQ[c.Query]
			flat = append(flat, c)
		}
	}
	return flat, nil
}

// adopt makes candidate c the solve's current strategy: every shard
// refreshes its local hit bitset from the improved coefficients, then res
// takes c's strategy, cost, and hits. On an embedding error res is left
// untouched.
func (ss *shardSolver) adopt(res *Result, c Candidate, cost Cost) error {
	w := ss.views[0].Idx.Workload()
	coeff, err := w.Space().Embed(vec.Add(w.Attrs(ss.target), c.Strategy))
	if err != nil {
		return err
	}
	for t := range ss.views {
		t0 := time.Now()
		ss.thr[t].hitSet(coeff, ss.hit[t])
		ss.charge(t, t0)
	}
	res.Strategy = vec.Clone(c.Strategy)
	res.Cost = cost.Of(c.Strategy)
	res.Hits = c.Hits
	return nil
}

// runSolve wraps one greedy solve with the solve span, the work-profile
// recorder, and the solve metrics. Multi-view solves also report their
// per-shard busy time (SolveStats.ShardBusy and the iq_shard_* counters).
func runSolve(ctx context.Context, op string, views []ShardView, target int,
	solve func(ctx context.Context, ss *shardSolver, rec *recorder) (*Result, error)) (*Result, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, op)
	rec := newRecorder()
	ss := newShardSolver(views, target)
	res, err := solve(ctx, ss, rec)
	rounds := 0
	if res != nil {
		rounds = res.Iterations
	}
	st := finishSolve(ctx, op, target, start, rec, rounds, err)
	st.ShardBusy = ss.busy
	endSolveSpan(span, st, err)
	for t, ns := range ss.busy {
		shard := strconv.Itoa(t)
		obs.Default.Counter("iq_shard_solves_total",
			"Scatter-gather solves that touched this shard.", "shard", shard).Inc()
		obs.Default.Counter("iq_shard_busy_nanoseconds_total",
			"Shard-local busy time inside scatter-gather solves.", "shard", shard).Add(ns)
	}
	if res != nil {
		res.Stats = st
	}
	return res, err
}
