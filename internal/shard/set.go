package shard

import (
	"context"
	"fmt"

	"iq/internal/core"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Loc places one global query: the shard that owns it and its index inside
// that shard's workload.
type Loc struct {
	Shard int
	Local int
}

// Shard is one partition: a subdomain index over a workload holding every
// object but only the shard's queries, plus the local→global query mapping
// (GlobalQ). It is the solvers' view type, so a Set's Shards go to the
// coordinator as they are.
type Shard = core.ShardView

// Set is one epoch's sharded view: the routing plan, the shards, and the
// global→local query ownership table. Like the System states that hold it, a
// published Set is immutable — mutations clone the affected shards (and the
// Owner table) and publish a new Set.
//
// A one-shard Set is the monolithic engine: its empty plan routes every
// query to shard 0, Owner and GlobalQ are the identity, and its index is
// built over, and so owns, the global workload itself (Single).
type Set struct {
	Plan   Plan
	Shards []Shard
	// Owner maps global query index → (shard, local index).
	Owner []Loc
}

// Single reports whether the Set is the one-shard layout described above.
func (s *Set) Single() bool { return len(s.Shards) == 1 }

// Build partitions w's queries by plan and constructs one workload/index
// pair per shard. Object tombstones and query tombstones are replayed into
// each shard so the per-shard state matches the global workload exactly;
// every shard's dirty set is drained afterwards so the fresh Set starts with
// a clean invalidation window, like a freshly built monolithic index. A
// one-shard plan indexes w itself with opts unchanged: no workload copy, and
// errors come back unwrapped, exactly as from subdomain.BuildCtx.
func Build(ctx context.Context, w *topk.Workload, plan Plan, opts subdomain.Options) (*Set, error) {
	n := plan.Shards()
	if n < 1 {
		return nil, fmt.Errorf("shard: plan has no shards")
	}
	perQ := make([][]topk.Query, n)
	perG := make([][]int, n)
	perRemoved := make([][]int, n)
	owner := make([]Loc, w.NumQueries())
	for j := 0; j < w.NumQueries(); j++ {
		q := w.Query(j)
		t := plan.Route(QueryPos(q))
		owner[j] = Loc{Shard: t, Local: len(perQ[t])}
		if w.IsQueryRemoved(j) {
			perRemoved[t] = append(perRemoved[t], len(perQ[t]))
		}
		perQ[t] = append(perQ[t], q)
		perG[t] = append(perG[t], j)
	}
	objects := make([]vec.Vector, w.NumObjects())
	for i := range objects {
		objects[i] = w.Attrs(i)
	}
	set := &Set{Plan: plan, Shards: make([]Shard, n), Owner: owner}
	for t := 0; t < n; t++ {
		sw, sopts := w, opts
		if n > 1 {
			var err error
			if sw, err = topk.NewWorkload(w.Space(), objects, perQ[t]); err != nil {
				return nil, fmt.Errorf("shard %d: %w", t, err)
			}
			for i := 0; i < w.NumObjects(); i++ {
				if w.IsRemoved(i) {
					sw.RemoveObject(i)
				}
			}
			sopts.RegionBase = uint64(t) * RegionStride
		}
		idx, err := subdomain.BuildCtx(ctx, sw, sopts)
		if err != nil {
			if n == 1 {
				return nil, err
			}
			return nil, fmt.Errorf("shard %d: %w", t, err)
		}
		for _, lj := range perRemoved[t] {
			if err := idx.RemoveQueryCtx(ctx, lj); err != nil {
				return nil, fmt.Errorf("shard %d: replay removed query: %w", t, err)
			}
		}
		idx.TakeDirty()
		idx.TakeRegionResets()
		set.Shards[t] = Shard{Idx: idx, GlobalQ: perG[t]}
	}
	return set, nil
}

// CloneFor prepares a Set for a copy-on-write mutation touching the flagged
// shards: those get deep-cloned workload/index pairs (and copied GlobalQ
// slices, which AddQuery appends to), the rest share the published pointers
// — publishing the returned Set swaps every affected shard's epoch in one
// atomic store. The Owner table is always copied (it is one small struct per
// query).
func (s *Set) CloneFor(ctx context.Context, affected []bool) *Set {
	next := &Set{
		Plan:   s.Plan,
		Shards: append([]Shard(nil), s.Shards...),
		Owner:  append([]Loc(nil), s.Owner...),
	}
	for t, sh := range s.Shards {
		if !affected[t] {
			continue
		}
		sw := sh.Idx.Workload().Clone()
		next.Shards[t] = Shard{
			Idx:     sh.Idx.CloneCtx(ctx, sw),
			GlobalQ: append([]int(nil), sh.GlobalQ...),
		}
	}
	return next
}

// LiveQueries counts shard t's non-tombstoned queries.
func (s *Set) LiveQueries(t int) int {
	w := s.Shards[t].Idx.Workload()
	live := 0
	for j := 0; j < w.NumQueries(); j++ {
		if !w.IsQueryRemoved(j) {
			live++
		}
	}
	return live
}

// Stats aggregates the per-shard index footprints.
func (s *Set) Stats() subdomain.Stats {
	var out subdomain.Stats
	for _, sh := range s.Shards {
		st := sh.Idx.Stats()
		out.Queries += st.Queries
		out.Subdomains += st.Subdomains
		out.Candidates += st.Candidates
		out.TreeNodes += st.TreeNodes
		out.SizeBytes += st.SizeBytes
		out.Intersections += st.Intersections
	}
	return out
}
