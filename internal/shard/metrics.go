package shard

import (
	"strconv"

	"iq/internal/obs"
)

// Per-shard metric families. The solver-side families
// (iq_shard_solves_total, iq_shard_busy_nanoseconds_total) are emitted by
// the scatter-gather coordinator in internal/core; the structural gauges
// below are refreshed by the owning System on every publish. All series are
// labelled by shard ordinal and exist only on sharded Systems — DESIGN.md's
// instrumentation map covers the whole iq_shard_* family with a prefix row.

// Publish refreshes the per-shard gauges from one Set and counts a mutation
// on every shard a commit touched (affected is nil for a fresh Set).
func Publish(s *Set, affected []bool) {
	if s.Single() {
		return
	}
	for t, sh := range s.Shards {
		shard := strconv.Itoa(t)
		obs.Default.Gauge("iq_shard_epoch",
			"Shard index epoch (per-shard mutation count).", "shard", shard).
			Set(int64(sh.Idx.Epoch()))
		obs.Default.Gauge("iq_shard_queries",
			"Live (non-tombstoned) queries owned by the shard.", "shard", shard).
			Set(int64(s.LiveQueries(t)))
		if affected != nil && affected[t] {
			obs.Default.Counter("iq_shard_mutations_total",
				"Committed mutations that touched the shard.", "shard", shard).Inc()
		}
	}
}
