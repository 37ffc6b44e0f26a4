package core

import (
	"context"
	"fmt"
	"sort"

	"iq/internal/obs"
	"iq/internal/subdomain"
)

// MaxHitRequest describes a Max-Hit Improvement Query (Definition 3): hit as
// many queries as possible while Cost(s) ≤ Budget.
type MaxHitRequest struct {
	Target int
	Budget float64
	Cost   Cost
	Bounds *Bounds
	// Workers fans candidate evaluation out across goroutines (≤1 =
	// serial; degenerate values are clamped to [1, max(2, GOMAXPROCS)]
	// and never beyond the query count). The result is bit-identical
	// regardless of worker count.
	Workers int
}

// MaxHitIQ answers a Max-Hit improvement query with the greedy heuristic of
// Algorithm 4; it is MaxHitIQCtx without a cancellation point.
func MaxHitIQ(idx *subdomain.Index, req MaxHitRequest) (*Result, error) {
	return MaxHitIQCtx(context.Background(), idx, req)
}

// MaxHitIQCtx answers a Max-Hit improvement query with the greedy heuristic
// of Algorithm 4: while budget remains, apply the candidate strategy with
// the lowest cost per hit; when the best-ratio candidate no longer fits, a
// final fill pass walks the remaining candidates in cost order and applies
// any that still fit (lines 13–17). Cancellation is observed at every greedy
// round and inside the candidate fan-out; a cancelled solve discards its
// partial strategy and returns a nil Result with
// ErrCanceled/ErrDeadlineExceeded wrapping ctx.Err().
//
// One deliberate deviation from the paper's literal pseudocode: budgets are
// checked against the cost of the *cumulative* strategy Cost(s*+s) rather
// than the sum Cost(s*)+Cost(s). Definition 3 constrains the final
// strategy's cost, and for norm-like costs the sum over-estimates
// (triangle inequality), so the cumulative check is both more faithful to
// the definition and never worse.
func MaxHitIQCtx(ctx context.Context, idx *subdomain.Index, req MaxHitRequest) (*Result, error) {
	return runSolve(ctx, "maxhit", idx, req.Target, func(ctx context.Context, gs *greedySolver, rec *recorder) (*Result, error) {
		return maxHitSolve(ctx, gs, req, rec)
	})
}

func maxHitSolve(ctx context.Context, gs *greedySolver, req MaxHitRequest, rec *recorder) (*Result, error) {
	res, err := gs.start(ctx, req.Cost, req.Workers, rec, func() error {
		if req.Budget < 0 {
			return fmt.Errorf("core: negative budget %g", req.Budget)
		}
		return CtxErr(ctx)
	})
	if err != nil {
		return nil, err
	}

	for {
		res.Iterations++
		if res.Iterations > gs.nq+8 {
			break
		}
		if err := checkpoint(ctx, "maxhit", res.Iterations); err != nil {
			return nil, err
		}
		// Round spans end explicitly on every exit path — defer inside a
		// loop would pile up until the solve returns.
		rctx, rsp := obs.StartSpan(ctx, "round")
		rsp.SetAttr("round", res.Iterations)
		cands, err := gs.round(rctx, res.Strategy, req.Cost, req.Bounds, rec)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Evaluations += len(cands)
		best, ok := bestRatio(cands, res.Hits)
		if !ok {
			rsp.End()
			break // no candidate gains hits: every query hit or infeasible
		}
		if best.Cost <= req.Budget {
			if err := gs.adopt(res, best, req.Cost); err != nil {
				rsp.End()
				return res, err
			}
			rsp.SetAttr("hits", res.Hits)
			rsp.End()
			continue
		}
		// Final fill pass (Algorithm 4 lines 13–18): cheapest-first over
		// the remaining candidates; apply the first that fits and
		// re-enter the loop in case the new position unlocks more. Equal
		// costs order by query index so the pass is deterministic at any
		// worker count (see DESIGN.md, "Deterministic parallelism"):
		// (Cost, Query) is a total order over unique query indices.
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].Cost != cands[b].Cost {
				return cands[a].Cost < cands[b].Cost
			}
			return cands[a].Query < cands[b].Query
		})
		applied := false
		for _, c := range cands {
			if c.Hits <= res.Hits || c.Cost > req.Budget {
				continue
			}
			if err := gs.adopt(res, c, req.Cost); err != nil {
				rsp.End()
				return res, err
			}
			applied = true
			break
		}
		rsp.SetAttr("hits", res.Hits)
		rsp.End()
		if !applied {
			break // nothing affordable gains a hit
		}
	}
	return res, nil
}
