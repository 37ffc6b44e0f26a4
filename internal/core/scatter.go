package core

// This file is the coordinator every single-target solve runs through. The
// greedy loops of Algorithms 3 and 4 (mincost.go, maxhit.go) see the
// workload as a list of ShardViews and ask the coordinator for one round of
// candidates at a time. The monolithic engine is the one-view case: a round
// is one generateCandidates call on the caller's goroutine whose slice is
// returned as-is — no scatter goroutine, no flatten copy, no gather, no
// per-shard accounting.
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
//     query's K, so thresholds match the monolithic index bit for bit.
//   gather — per-shard hit counts are completed into global hit counts: for
//     every surviving candidate, each non-owning shard's evaluator counts
//     hits among its own queries and the coordinator sums. Shard t's
//     contributions are computed by one goroutine owning evaluator t (the
//     scatter fan-out has joined, so the evaluator is free), so the gather
//     parallelises as well as the scatter.
//   select/apply — bestRatio, anti-overshoot, and the fill pass run on the
//     gathered candidates with globalized query indices. All three break
//     ties through (ratio, cost, query) or (cost, query), total orders over
//     unique query indices, so candidate ORDER is irrelevant and the winner
//     equals the monolithic winner. The winner's hit set is fanned back out
//     (one HitSetBits per shard over the shard-local bitset).
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
	"iq/internal/ese"
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
// rounds: evaluator pools, shard-local hit bitsets, probe scratch, and (with
// more than one view) per-shard busy-time accounting.
type shardSolver struct {
	views  []ShardView
	target int
	nq     int // global query count (tombstones included), Σ shard counts
	pools  [][]*ese.Evaluator
	rel    []func()
	hit    []*bitset.Bits
	rs     []*roundScratch
	busy   []int64 // ns of shard-local work, indexed by shard; nil for one view
}

func newShardSolver(views []ShardView, target int) *shardSolver {
	ss := &shardSolver{views: views, target: target}
	for _, v := range views {
		ss.nq += v.Idx.Workload().NumQueries()
	}
	return ss
}

// acquire checks out one evaluator pool per shard (each keyed by the shard's
// index, so the cross-solve caches stay per-shard) and seeds the shard-local
// base hit sets. workers bounds the per-shard probe fan-out. Busy-time
// accounting starts once every shard is acquired.
func (ss *shardSolver) acquire(ctx context.Context, workers int) error {
	n := len(ss.views)
	ss.pools = make([][]*ese.Evaluator, n)
	ss.rel = make([]func(), 0, n)
	ss.hit = make([]*bitset.Bits, n)
	ss.rs = make([]*roundScratch, n)
	for t, v := range ss.views {
		pool, release, err := AcquireEvaluators(ctx, v.Idx, ss.target, workers)
		if err != nil {
			ss.close()
			return err
		}
		ss.pools[t] = pool
		ss.rel = append(ss.rel, release)
		ss.hit[t] = bitset.New(v.Idx.Workload().NumQueries())
		pool[0].BaseHitSet(ss.hit[t])
		ss.rs[t] = &roundScratch{}
	}
	if n > 1 {
		ss.busy = make([]int64, n)
	}
	return nil
}

func (ss *shardSolver) close() {
	for _, rel := range ss.rel {
		rel()
	}
	ss.rel = nil
}

// charge adds the time since t0 to shard t's busy total (multi-view only).
func (ss *shardSolver) charge(t int, t0 time.Time) {
	if ss.busy != nil {
		ss.busy[t] += time.Since(t0).Nanoseconds()
	}
}

// start validates the request parts every solve shares, acquires the
// evaluators, and returns the zero-strategy result. Every shard workload
// holds the full object table, so shard 0 answers the target checks; every
// query is owned by exactly one shard, so the base hit counts sum to the
// global one. check runs between the shared validation and the evaluator
// build, in the order the solver's error precedence needs.
func (ss *shardSolver) start(ctx context.Context, cost Cost, workers int, check func() error) (*Result, error) {
	if len(ss.views) == 0 {
		return nil, fmt.Errorf("core: sharded solve with no shards")
	}
	if err := validateCommon(ss.views[0].Idx, ss.target, cost); err != nil {
		return nil, err
	}
	if err := check(); err != nil {
		return nil, err
	}
	if err := ss.acquire(ctx, workers); err != nil {
		return nil, err
	}
	base := 0
	for t := range ss.views {
		base += ss.pools[t][0].BaseHits()
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
		return generateCandidates(ctx, ss.views[0].Idx, ss.pools[0], ss.target, cur, ss.hit[0], cost, bounds, ss.rs[0], rec)
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
			perShard[t], errs[t] = generateCandidates(sctx, ss.views[t].Idx,
				ss.pools[t], ss.target, cur, ss.hit[t], cost, bounds, ss.rs[t], rec)
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

	// Flatten shard-major: globalize query indices and remember owners.
	// Per-shard slices alias each shard's roundScratch and are dead after
	// this copy.
	var flat []Candidate
	var owner []int
	for t, cands := range perShard {
		for _, c := range cands {
			c.Query = ss.views[t].GlobalQ[c.Query]
			flat = append(flat, c)
			owner = append(owner, t)
		}
	}
	if len(flat) == 0 {
		return flat, nil
	}

	// Improved coefficients per candidate, computed once and read-only for
	// every gather goroutine. Each candidate already embedded successfully
	// inside its owning shard's probe, so failure here is impossible for
	// the same inputs; the error path stays for defense.
	w := ss.views[0].Idx.Workload()
	attrs := w.Attrs(ss.target)
	coeffs := make([]vec.Vector, len(flat))
	for i, c := range flat {
		coeff, err := w.Space().Embed(vec.Add(attrs, c.Strategy))
		if err != nil {
			return nil, err
		}
		coeffs[i] = coeff
	}

	// Gather: shard t's goroutine owns evaluator t exclusively and counts
	// that shard's hits for every candidate it does NOT own (owned hits
	// were already counted during the probe). Contributions land in
	// per-shard slices; the coordinator sums after the join, in fixed
	// shard order.
	_, gsp := obs.StartSpan(ctx, "gather")
	gsp.SetAttr("shards", n)
	gsp.SetAttr("cands", len(flat))
	contrib := make([][]int, n)
	var gw sync.WaitGroup
	for t := range ss.views {
		gw.Add(1)
		go func(t int) {
			defer gw.Done()
			t0 := time.Now()
			ct := make([]int, len(flat))
			ev := ss.pools[t][0]
			for i := range flat {
				if owner[i] != t {
					ct[i] = ev.HitsWithCoeff(coeffs[i])
				}
			}
			contrib[t] = ct
			ss.charge(t, t0)
		}(t)
	}
	gw.Wait()
	gsp.End()
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	for i := range flat {
		for t := 0; t < n; t++ {
			if owner[i] != t {
				flat[i].Hits += contrib[t][i]
			}
		}
	}
	return flat, nil
}

// adopt makes candidate c the solve's current strategy: every shard
// refreshes its local hit bitset from the improved coefficients (HitSetBits
// only reads coeff), then res takes c's strategy, cost, and hits. On an
// embedding error res is left untouched.
func (ss *shardSolver) adopt(res *Result, c Candidate, cost Cost) error {
	w := ss.views[0].Idx.Workload()
	coeff, err := w.Space().Embed(vec.Add(w.Attrs(ss.target), c.Strategy))
	if err != nil {
		return err
	}
	for t := range ss.views {
		t0 := time.Now()
		ss.pools[t][0].HitSetBits(coeff, ss.hit[t])
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
