package iq

// Epoch half of the System facade: building an epoch's index, the solve and
// hit-count reads against one epoch, and the commit protocol every write
// goes through.

import (
	"context"
	"fmt"

	"iq/internal/core"
	"iq/internal/obs/workload"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// newSystem indexes w and wraps it in a System. Query tombstones already in
// w are replayed into the fresh index (Build indexes every query slot, which
// keeps query numbering stable), and the index's dirty set and region resets
// are drained, so a fresh System starts with a clean invalidation window.
func newSystem(ctx context.Context, w *topk.Workload, opts IndexOptions) (*System, error) {
	idx, err := subdomain.BuildCtx(ctx, w, opts)
	if err != nil {
		return nil, err
	}
	for j := 0; j < w.NumQueries(); j++ {
		if w.IsQueryRemoved(j) {
			if err := idx.RemoveQueryCtx(ctx, j); err != nil {
				return nil, fmt.Errorf("iq: replay removed query: %w", err)
			}
		}
	}
	idx.TakeDirty()
	idx.TakeRegionResets()
	s := &System{}
	s.cur.Store(&state{w: w, idx: idx, opts: opts})
	return s, nil
}

// solveMinCost runs one Min-Cost solve against this epoch snapshot.
func (st *state) solveMinCost(ctx context.Context, req MinCostRequest) (*Result, error) {
	return core.MinCostIQCtx(ctx, st.idx, req)
}

// solveMaxHit runs one Max-Hit solve against this epoch snapshot.
func (st *state) solveMaxHit(ctx context.Context, req MaxHitRequest) (*Result, error) {
	return core.MaxHitIQCtx(ctx, st.idx, req)
}

// hitsCtx counts the target's hits on this snapshot with strategy applied
// (nil for H(p)) from the target's threshold vector. The error texts, "ese:"
// prefix included, are part of these read paths' contract.
func (st *state) hitsCtx(ctx context.Context, target int, strategy Vector) (int, error) {
	w := st.w
	if target < 0 || target >= w.NumObjects() {
		return 0, fmt.Errorf("ese: target %d out of range", target)
	}
	if w.IsRemoved(target) {
		return 0, fmt.Errorf("ese: target %d is removed", target)
	}
	coeff := w.Coeff(target)
	if strategy != nil {
		var err error
		if coeff, err = w.Space().Embed(vec.Add(w.Attrs(target), strategy)); err != nil {
			return 0, fmt.Errorf("ese: embedding improved target: %w", err)
		}
	}
	return core.TargetHits(ctx, st.idx, target, coeff), nil
}

// mutateCtx is the commit protocol every write goes through. Under the
// writer lock it clones the published index (and with it the workload),
// applies every mutation to the clone, and publishes it in one atomic store.
//
// After the mutations succeed, the clone's accumulated dirty set is taken
// and the cross-solve caches are migrated from the superseded index to the
// clone before it is published: entries the mutation did not dirty stay warm
// across the write, and the first post-commit solve already finds them. A
// failed — or cancelled — write discards the clone and its dirty set
// together: cancellation is re-checked at the MutationCheckpoint after the
// mutations, so a cancelled write never publishes a partially merged dirty
// set or migrated cache state.
//
// When a durability sink is attached, the transaction is appended to the WAL
// — stamped with the post-mutation epoch — after the mutations succeed and
// before the clone publishes. A WAL failure therefore aborts the write: the
// caller never gets an acknowledged write the log does not hold.
//
// post, when non-nil, runs against the fully mutated clone before the
// durability hook (CommitAndCount's read-back). batch selects the
// ApplyBatch semantics: deferred repartition plus per-mutation cancellation
// checkpoints and error wrapping.
func (s *System) mutateCtx(ctx context.Context, muts []Mutation, batch bool, post func(st *state) error) ([]MutationResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	idx := old.idx.CloneCtx(ctx, old.w.Clone())
	next := &state{w: idx.Workload(), idx: idx, opts: old.opts, epoch: old.epoch + 1}
	if batch {
		idx.BeginBatch()
	}
	results := make([]MutationResult, len(muts))
	for i, m := range muts {
		if batch {
			if err := core.MutationCheckpoint(ctx, i); err != nil {
				return nil, err
			}
		}
		id, err := applyMutation(ctx, next, m)
		if err != nil {
			if batch {
				return nil, fmt.Errorf("iq: batch mutation %d: %w", i, err)
			}
			return nil, err
		}
		results[i] = MutationResult{ID: id}
	}
	if batch {
		idx.EndBatchCtx(ctx)
	}
	if post != nil {
		if err := post(next); err != nil {
			return nil, err
		}
	}
	if err := core.MutationCheckpoint(ctx, -1); err != nil {
		return nil, err
	}
	if s.dur != nil && len(muts) > 0 {
		if err := s.dur.logTxn(ctx, next.epoch, muts); err != nil {
			return nil, err
		}
	}
	ds := idx.TakeDirty()
	core.MigrateSolveCaches(old.idx, idx, ds)
	// Region lifecycle bookkeeping for the analytics layer: lineages the
	// mutation terminated are retired (their accumulated stats must never be
	// read as a live region's), then the commit's dirty-set churn is
	// attributed to the surviving regions. Both piggyback on the same drained
	// dirty set the cache migration used.
	if resets := idx.TakeRegionResets(); len(resets) > 0 {
		workload.Default.RetireRegions(resets)
	}
	recordCommitChurn(idx, ds)
	s.cur.Store(next)
	return results, nil
}

// applyMutation applies one mutation to the private clone. Returns the
// assigned index for AddObject/AddQuery and -1 otherwise.
func applyMutation(ctx context.Context, next *state, m Mutation) (int, error) {
	if n := countMutationOps(m); n != 1 {
		return -1, fmt.Errorf("exactly one operation must be set, got %d", n)
	}
	idx := next.idx
	switch {
	case m.Commit != nil:
		if err := checkStrategy(next.w, m.Commit.Target, m.Commit.Strategy); err != nil {
			return -1, err
		}
		attrs := vec.Add(next.w.Attrs(m.Commit.Target), m.Commit.Strategy)
		return -1, idx.UpdateObjectCtx(ctx, m.Commit.Target, attrs)
	case m.AddObject != nil:
		return idx.AddObjectCtx(ctx, m.AddObject.Attrs)
	case m.RemoveObject != nil:
		return -1, idx.RemoveObjectCtx(ctx, m.RemoveObject.ID)
	case m.AddQuery != nil:
		return idx.AddQueryCtx(ctx, m.AddQuery.Query)
	default:
		return -1, idx.RemoveQueryCtx(ctx, m.RemoveQuery.Index)
	}
}

// countMutationOps counts how many operation fields a Mutation sets; valid
// mutations set exactly one.
func countMutationOps(m Mutation) int {
	n := 0
	if m.Commit != nil {
		n++
	}
	if m.AddObject != nil {
		n++
	}
	if m.RemoveObject != nil {
		n++
	}
	if m.AddQuery != nil {
		n++
	}
	if m.RemoveQuery != nil {
		n++
	}
	return n
}
