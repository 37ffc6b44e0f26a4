package core

// This file holds the per-solve state the greedy loops of Algorithms 3 and 4
// (mincost.go, maxhit.go) share: the target's filled threshold vector (see
// cache.go), the current hit set, and the round scratch. A round is one
// generateCandidates call on the solve's goroutine; Workers parallelises the
// probes inside it.
//
// The threshold vector is loaded once when the solve starts. It is the
// solve's hit counter: H(p+s) is one threshold count, and any goroutine may
// compute it, because the vector is read-only.

import (
	"context"
	"time"

	"iq/internal/bitset"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// greedySolver carries the state one solve reuses across greedy rounds: the
// threshold vector (the hit counter), the current hit set, and probe
// scratch.
type greedySolver struct {
	idx     *subdomain.Index
	target  int
	nq      int // query count, tombstones included
	workers int // probe fan-out, clamped per round
	thr     *thresholdVec
	hit     *bitset.Bits
	rs      roundScratch
}

// start validates the request parts every solve shares, loads the filled
// threshold vector, seeds the base hit set, and returns the zero-strategy
// result. check runs between the shared validation and the threshold fill,
// in the order the solver's error precedence needs.
func (gs *greedySolver) start(ctx context.Context, cost Cost, workers int, rec *recorder, check func() error) (*Result, error) {
	if err := validateCommon(gs.idx, gs.target, cost); err != nil {
		return nil, err
	}
	if err := check(); err != nil {
		return nil, err
	}
	w := gs.idx.Workload()
	gs.workers = workers
	gs.thr = loadThresholds(ctx, gs.idx, gs.target, rec, gs.rs.attribution(rec, gs.idx))
	gs.hit = bitset.New(gs.nq)
	gs.thr.hitSet(w.Coeff(gs.target), gs.hit)
	base := gs.hit.Count()
	return &Result{Strategy: vec.New(len(w.Attrs(gs.target))), BaseHits: base, Hits: base}, nil
}

// round runs one greedy round's candidate generation. The slice aliases the
// solver's roundScratch and is overwritten by the next round; the strategies
// inside are freshly allocated per probe.
func (gs *greedySolver) round(ctx context.Context, cur vec.Vector, cost Cost, bounds *Bounds, rec *recorder) ([]Candidate, error) {
	return generateCandidates(ctx, gs.thr, gs.workers, cur, gs.hit, cost, bounds, &gs.rs, rec)
}

// adopt makes candidate c the solve's current strategy: the hit set is
// refreshed from the improved coefficients, then res takes c's strategy,
// cost, and hits. On an embedding error res is left untouched.
func (gs *greedySolver) adopt(res *Result, c Candidate, cost Cost) error {
	w := gs.idx.Workload()
	coeff, err := w.Space().Embed(vec.Add(w.Attrs(gs.target), c.Strategy))
	if err != nil {
		return err
	}
	gs.thr.hitSet(coeff, gs.hit)
	res.Strategy = vec.Clone(c.Strategy)
	res.Cost = cost.Of(c.Strategy)
	res.Hits = c.Hits
	return nil
}

// runSolve wraps one greedy solve with the solve span, the work-profile
// recorder, and the solve metrics.
func runSolve(ctx context.Context, op string, idx *subdomain.Index, target int,
	solve func(ctx context.Context, gs *greedySolver, rec *recorder) (*Result, error)) (*Result, error) {
	start := time.Now()
	ctx, span := startSolveSpan(ctx, op)
	rec := newRecorder()
	gs := &greedySolver{idx: idx, target: target, nq: idx.Workload().NumQueries()}
	res, err := solve(ctx, gs, rec)
	rounds := 0
	if res != nil {
		rounds = res.Iterations
	}
	st := finishSolve(ctx, op, target, start, rec, rounds, err)
	endSolveSpan(span, st, err)
	if res != nil {
		res.Stats = st
	}
	return res, err
}
