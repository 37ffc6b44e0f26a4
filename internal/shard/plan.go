// Package shard partitions one System's query workload by query-space
// position into N shard indexes. Every shard holds the FULL object table but
// only its own contiguous slice of queries, so per-query probe work,
// threshold vectors, and dirty-set invalidation all scale down with the
// shard's query count while the scatter coordinator in
// internal/core reassembles bit-identical global answers. The package owns
// the routing plan (where a query lives), the shard set (the per-shard
// workload/index pairs plus the global↔local query mapping), the drift
// report comparing a live plan against the workload advisor's proposal, and
// the per-shard metric gauges.
package shard

import (
	"sort"

	"iq/internal/obs/workload"
	"iq/internal/topk"
)

// RegionStride spaces the region-ID bases of consecutive shard indexes.
// Shard t mints regions in [t*RegionStride+1, (t+1)*RegionStride), so region
// identities stay unique process-wide (the workload-analytics aggregator
// keys on them) and a region's owning shard is recoverable as
// region / RegionStride. 2^32 region mints per shard is far beyond any
// workload's lifetime.
const RegionStride = uint64(1) << 32

// RegionShard recovers the shard that minted a region ID.
func RegionShard(region uint64) int { return int(region / RegionStride) }

// Plan is the deterministic region→shard routing function: len(Cuts)+1
// contiguous shards over the first query-space axis, with shard i owning
// positions in [Cuts[i-1], Cuts[i]). Cuts ascend; a position equal to a cut
// routes right. The first axis is the same linearisation the workload
// analytics layer uses for region positions, so advisor proposals translate
// directly into cuts.
type Plan struct {
	Cuts []float64
}

// Shards returns the shard count the plan routes across.
func (p Plan) Shards() int { return len(p.Cuts) + 1 }

// Route returns the owning shard for a query at position pos: the number of
// cuts ≤ pos (binary search, deterministic).
func (p Plan) Route(pos float64) int {
	lo, hi := 0, len(p.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Cuts[mid] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// QueryPos is the routing position of a query: the first coordinate of its
// weight-space point (zero for degenerate points, which downstream
// validation rejects anyway).
func QueryPos(q topk.Query) float64 {
	if len(q.Point) == 0 {
		return 0
	}
	return q.Point[0]
}

// PlanFromPositions is the deterministic fallback planner used when the
// workload analytics are off or have nothing to say: k-quantile cuts over
// the given query positions, so every shard starts with roughly the same
// query count. With no positions at all the cuts split [0,1] evenly.
func PlanFromPositions(positions []float64, k int) Plan {
	if k < 1 {
		k = 1
	}
	cuts := make([]float64, 0, k-1)
	if len(positions) == 0 {
		for i := 1; i < k; i++ {
			cuts = append(cuts, float64(i)/float64(k))
		}
		return Plan{Cuts: cuts}
	}
	sorted := append([]float64(nil), positions...)
	sort.Float64s(sorted)
	for i := 1; i < k; i++ {
		cuts = append(cuts, sorted[i*len(sorted)/k])
	}
	return Plan{Cuts: cuts}
}

// PlanFromProposal converts a workload-advisor proposal into a k-shard plan:
// cuts at the midpoints between consecutive proposed shards' position
// ranges. When the proposal carries fewer than k shards (idle trailing
// space), the remaining cuts repeat the last boundary, leaving empty
// trailing shards — correctness never depends on the plan, only balance
// does. Returns ok=false when the proposal is unusable (nil or empty).
func PlanFromProposal(prop *workload.Proposal, k int) (Plan, bool) {
	if prop == nil || len(prop.Shards) == 0 || k < 1 {
		return Plan{}, false
	}
	cuts := make([]float64, 0, k-1)
	for i := 1; i < len(prop.Shards) && len(cuts) < k-1; i++ {
		cuts = append(cuts, (prop.Shards[i-1].PosMax+prop.Shards[i].PosMin)/2)
	}
	for len(cuts) < k-1 {
		last := 1.0
		if len(cuts) > 0 {
			last = cuts[len(cuts)-1]
		} else if len(prop.Shards) > 0 {
			last = prop.Shards[len(prop.Shards)-1].PosMax
		}
		cuts = append(cuts, last)
	}
	sort.Float64s(cuts)
	return Plan{Cuts: cuts}, true
}
