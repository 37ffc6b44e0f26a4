package iq

// Shard-set half of the System facade. Every epoch holds a shard.Set: with
// IndexOptions.Shards > 1 the query workload is partitioned by query-space
// position into N shard indexes (internal/shard), and with Shards ≤ 1 the
// Set is one shard whose index is built over the global workload itself.
// Solves run through the one coordinator in internal/core (the monolith is
// its one-view case) and mutations through the one commit protocol below.
// Both are bit-identical at any shard count: same results, same errors, same
// epochs — sharding only changes how the work is laid out.

import (
	"context"
	"fmt"

	"iq/internal/core"
	"iq/internal/obs/workload"
	"iq/internal/shard"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// newSystem indexes w — as opts.Shards shard indexes when that is above
// one, else as one index over w itself — and wraps it in a System. The
// global workload stays alongside the shards as the source of truth for
// query/object numbering, Evaluate, and snapshots.
func newSystem(ctx context.Context, w *topk.Workload, opts IndexOptions) (*System, error) {
	plan := shard.Plan{}
	if opts.Shards > 1 {
		plan = buildShardPlan(w, opts.Shards)
	}
	set, err := shard.Build(ctx, w, plan, opts)
	if err != nil {
		return nil, err
	}
	s := &System{}
	s.cur.Store(&state{w: w, sh: set, opts: opts})
	shard.Publish(set, nil)
	return s, nil
}

// buildShardPlan picks the region→shard routing plan: the workload advisor's
// proposal when analytics are on and have data, else deterministic k-quantile
// cuts over the live query positions. Correctness never depends on the plan —
// results are bit-identical under any routing — only balance does, so ambient
// analytics state cannot change answers.
func buildShardPlan(w *topk.Workload, k int) shard.Plan {
	if workload.Enabled() {
		if plan, ok := shard.PlanFromProposal(workload.Default.Snapshot().Advise(k), k); ok {
			return plan
		}
	}
	positions := make([]float64, 0, w.NumQueries())
	for j := 0; j < w.NumQueries(); j++ {
		if w.IsQueryRemoved(j) {
			continue
		}
		positions = append(positions, shard.QueryPos(w.Query(j)))
	}
	return shard.PlanFromPositions(positions, k)
}

// solveMinCost runs one Min-Cost solve against this epoch snapshot.
func (st *state) solveMinCost(ctx context.Context, req MinCostRequest) (*Result, error) {
	return core.MinCostViews(ctx, st.sh.Shards, req)
}

// solveMaxHit runs one Max-Hit solve against this epoch snapshot.
func (st *state) solveMaxHit(ctx context.Context, req MaxHitRequest) (*Result, error) {
	return core.MaxHitViews(ctx, st.sh.Shards, req)
}

// hitsCtx counts the target's hits on this snapshot with strategy applied
// (nil for H(p)): one threshold-vector count per shard, summed — every
// query is owned by exactly one shard, so the sum equals the monolithic
// count. The error texts, "ese:" prefix included, are part of these read
// paths' contract.
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
	total := 0
	for _, sh := range st.sh.Shards {
		total += core.TargetHits(ctx, sh.Idx, target, coeff)
	}
	return total, nil
}

// index returns the snapshot's lone index for the solvers that only run on
// one (the combinatorial and exhaustive ones); a sharded System gets the
// errSharded error naming op.
func (st *state) index(op string) (*subdomain.Index, error) {
	if !st.sh.Single() {
		return nil, errSharded(op)
	}
	return st.sh.Shards[0].Idx, nil
}

// mutateCtx is the commit protocol every write goes through. Under the
// writer lock it clones ONLY the shards the batch touches (the rest share
// published pointers, so their epochs and cached thresholds stay warm),
// plus the global workload unless the one shard owns it. It applies every
// mutation shard-first (validation errors surface with the monolithic
// messages), mirroring each into the global workload when the shards do not
// own it, then publishes all affected shard epochs in one atomic store.
//
// After the mutations succeed, each affected shard's accumulated dirty set
// is taken and the cross-solve caches are migrated from the superseded
// index to the clone before it is published: entries the mutation did not
// dirty stay warm across the write, and the first post-commit solve already
// finds them. A failed — or cancelled — write discards the clone and its
// dirty sets together: cancellation is re-checked at the MutationCheckpoint
// after the mutations, so a cancelled write never publishes a partially
// merged dirty set or migrated cache state.
//
// When a durability sink is attached, the transaction is appended to the WAL
// — stamped with the post-mutation epoch — after the mutations succeed and
// before the clone publishes. A WAL failure therefore aborts the write: the
// caller never gets an acknowledged write the log does not hold.
//
// post, when non-nil, runs against the fully mutated clone before the
// durability hook (CommitAndCount's read-back). batch selects the
// ApplyBatch semantics: per-shard deferred repartition plus per-mutation
// cancellation checkpoints and error wrapping.
func (s *System) mutateCtx(ctx context.Context, muts []Mutation, batch bool, post func(st *state) error) ([]MutationResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	affected := shardsAffected(old.sh, muts)
	next := &state{
		sh:    old.sh.CloneFor(ctx, affected),
		opts:  old.opts,
		epoch: old.epoch + 1,
	}
	if next.sh.Single() {
		next.w = next.sh.Shards[0].Idx.Workload()
	} else {
		next.w = old.w.Clone()
	}
	if batch {
		for t, hit := range affected {
			if hit {
				next.sh.Shards[t].Idx.BeginBatch()
			}
		}
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
		for t, hit := range affected {
			if hit {
				next.sh.Shards[t].Idx.EndBatchCtx(ctx)
			}
		}
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
	for t, hit := range affected {
		if !hit {
			continue
		}
		idx := next.sh.Shards[t].Idx
		ds := idx.TakeDirty()
		core.MigrateSolveCaches(old.sh.Shards[t].Idx, idx, ds)
		// Region lifecycle bookkeeping for the analytics layer: lineages the
		// mutation terminated are retired (their accumulated stats must never
		// be read as a live region's), then the commit's dirty-set churn is
		// attributed to the surviving regions. Both piggyback on the same
		// drained dirty set the cache migration used.
		if resets := idx.TakeRegionResets(); len(resets) > 0 {
			workload.Default.RetireRegions(resets)
		}
		recordCommitChurn(idx, ds)
	}
	shard.Publish(next.sh, affected)
	s.cur.Store(next)
	return results, nil
}

// shardsAffected computes which shards a mutation batch touches, so CloneFor
// clones only those. The lone shard of a one-shard Set is always affected.
// Object operations touch every shard (all shards hold the full object
// table); query operations touch the owning shard. Query additions are
// simulated in order so a later RemoveQuery of a query added earlier in the
// same batch resolves to the right shard; an out-of-range index affects
// nothing — the mutation fails during application.
func shardsAffected(set *shard.Set, muts []Mutation) []bool {
	affected := make([]bool, len(set.Shards))
	if set.Single() {
		affected[0] = true
		return affected
	}
	var added []int // owning shard per query appended by this batch
	for _, m := range muts {
		switch {
		case m.Commit != nil, m.AddObject != nil, m.RemoveObject != nil:
			for t := range affected {
				affected[t] = true
			}
		case m.AddQuery != nil:
			t := set.Plan.Route(shard.QueryPos(m.AddQuery.Query))
			affected[t] = true
			added = append(added, t)
		case m.RemoveQuery != nil:
			j := m.RemoveQuery.Index
			switch {
			case j >= 0 && j < len(set.Owner):
				affected[set.Owner[j].Shard] = true
			case j >= len(set.Owner) && j < len(set.Owner)+len(added):
				affected[added[j-len(set.Owner)]] = true
			}
		}
	}
	return affected
}

// applyMutation applies one mutation to the private clone: shard indexes
// first (their validation produces the same errors, with global object
// indexes, as a monolithic index), then — unless the one shard owns it —
// the global workload, which never fails once the shards accepted. Returns
// the assigned global index for AddObject/AddQuery and -1 otherwise.
func applyMutation(ctx context.Context, next *state, m Mutation) (int, error) {
	if n := countMutationOps(m); n != 1 {
		return -1, fmt.Errorf("exactly one operation must be set, got %d", n)
	}
	sh := next.sh
	mirror := !sh.Single()
	switch {
	case m.Commit != nil:
		if err := checkStrategy(next.w, m.Commit.Target, m.Commit.Strategy); err != nil {
			return -1, err
		}
		attrs := vec.Add(next.w.Attrs(m.Commit.Target), m.Commit.Strategy)
		for _, shd := range sh.Shards {
			if err := shd.Idx.UpdateObjectCtx(ctx, m.Commit.Target, attrs); err != nil {
				return -1, err
			}
		}
		if mirror {
			return -1, next.w.UpdateObject(m.Commit.Target, attrs)
		}
		return -1, nil
	case m.AddObject != nil:
		id := -1
		for _, shd := range sh.Shards {
			var err error
			if id, err = shd.Idx.AddObjectCtx(ctx, m.AddObject.Attrs); err != nil {
				return -1, err
			}
		}
		if mirror {
			return next.w.AddObject(m.AddObject.Attrs)
		}
		return id, nil
	case m.RemoveObject != nil:
		for _, shd := range sh.Shards {
			if err := shd.Idx.RemoveObjectCtx(ctx, m.RemoveObject.ID); err != nil {
				return -1, err
			}
		}
		if mirror {
			next.w.RemoveObject(m.RemoveObject.ID)
		}
		return -1, nil
	case m.AddQuery != nil:
		t := sh.Plan.Route(shard.QueryPos(m.AddQuery.Query))
		lj, err := sh.Shards[t].Idx.AddQueryCtx(ctx, m.AddQuery.Query)
		if err != nil {
			return -1, err
		}
		gj := lj
		if mirror {
			if gj, err = next.w.AddQuery(m.AddQuery.Query); err != nil {
				return -1, err
			}
		}
		sh.Shards[t].GlobalQ = append(sh.Shards[t].GlobalQ, gj)
		sh.Owner = append(sh.Owner, shard.Loc{Shard: t, Local: lj})
		return gj, nil
	default:
		// The owning shard would report its LOCAL index; check against the
		// global numbering so the error names the caller's index.
		j := m.RemoveQuery.Index
		if j < 0 || j >= next.w.NumQueries() || next.w.IsQueryRemoved(j) {
			return -1, fmt.Errorf("subdomain: query %d not indexed", j)
		}
		loc := sh.Owner[j]
		if err := sh.Shards[loc.Shard].Idx.RemoveQueryCtx(ctx, loc.Local); err != nil {
			return -1, err
		}
		if mirror {
			next.w.RemoveQuery(j)
		}
		return -1, nil
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

// Shards returns the engine's shard count: 1 for the monolithic engine,
// Options.Shards for a sharded one.
func (s *System) Shards() int { return len(s.view().sh.Shards) }

// ShardInfo describes one shard of a sharded System for stats surfaces.
type ShardInfo struct {
	// Shard is the shard ordinal (also the metric label value).
	Shard int `json:"shard"`
	// Epoch is the shard index's own mutation count; unaffected shards keep
	// their epoch across commits.
	Epoch uint64 `json:"epoch"`
	// Queries counts the live (non-tombstoned) queries the shard owns.
	Queries int `json:"queries"`
	// Subdomains is the shard index's subdomain count.
	Subdomains int `json:"subdomains"`
}

// ShardInfos reports the per-shard layout, nil for an unsharded System.
func (s *System) ShardInfos() []ShardInfo {
	sh := s.view().sh
	if sh.Single() {
		return nil
	}
	out := make([]ShardInfo, len(sh.Shards))
	for t, shd := range sh.Shards {
		out[t] = ShardInfo{
			Shard:      t,
			Epoch:      shd.Idx.Epoch(),
			Queries:    sh.LiveQueries(t),
			Subdomains: shd.Idx.NumSubdomains(),
		}
	}
	return out
}

// ShardPlan returns the routing plan's cut positions (len = shards-1), nil
// for an unsharded System.
func (s *System) ShardPlan() []float64 {
	return append([]float64(nil), s.view().sh.Plan.Cuts...)
}

// RouteQueryPos returns the shard that owns a query at the given first-axis
// position (always 0 for an unsharded System).
func (s *System) RouteQueryPos(pos float64) int {
	return s.view().sh.Plan.Route(pos)
}

// errSharded builds the error returned by solver surfaces the sharded engine
// does not support.
func errSharded(op string) error {
	return fmt.Errorf("iq: %s is unsupported with Shards > 1 (solve against an unsharded System)", op)
}
