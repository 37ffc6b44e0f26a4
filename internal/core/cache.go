package core

// This file is the serving path's one hit counter and its cross-solve cache.
// For a target and a query j, the k-th best competitor among the other live
// objects — its score and its id — is all the query needs: the improved
// target hits j exactly when topk.Better ranks it above that competitor. The
// competitor never moves while the target improves (the target is excluded
// from its own competition), so one threshold vector per (index snapshot,
// target) answers every probe of every greedy round of every solve with one
// dot product per query: H(p+s) = #{j : Better(coeff·q_j, target, kth_j)}.
// This is the reverse top-k threshold test (RTA, ref [21]) over cached
// thresholds.
//
// A solve fills every live slot of its vector once, under the entry's own
// lock (never the table lock), before its first round. A filled vector is
// never written again — fills and migrations publish a fresh one — so the
// workers of any number of solves read it without locks.
//
// Correctness invariant: a cached slot holds the bit-identical value the
// fill would compute, so results are the same with the cache on or off — the
// determinism property tests assert exactly that.
//
// Memory: the table is LRU-bounded. An entry's key holds a strong reference
// to its epoch's index, so an (idx, target) key can never collide with a
// recycled pointer. Migration takes a superseded snapshot's entries out of
// the table, so the cache pins at most the published epoch plus whatever
// snapshots readers still solve against.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"iq/internal/bitset"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

var (
	mThresholdCacheHits = obs.Default.Counter("iq_threshold_cache_hits_total",
		"hitThreshold lookups served from the epoch-keyed cache.")
	mThresholdCacheMisses = obs.Default.Counter("iq_threshold_cache_misses_total",
		"hitThreshold lookups that ran a full top-k evaluation.")
	mSolveCacheEvictions = obs.Default.Counter("iq_solve_cache_evictions_total",
		"Threshold cache entries evicted by the LRU bound.")
	mCacheEntriesRetained = obs.Default.Counter("iq_cache_entries_retained_total",
		"Cached threshold slots carried across a mutation by dirty-set migration.")
	mCacheEntriesInvalidated = obs.Default.Counter("iq_cache_entries_invalidated_total",
		"Cached threshold slots dropped by dirty-set migration because the mutation's dirty set intersected them.")
)

// cacheEnabled gates the threshold cache. On by default; the benchmark
// harness and the determinism tests flip it to A/B the cached and uncached
// paths.
var cacheEnabled atomic.Bool

func init() { cacheEnabled.Store(true) }

// SetSolveCacheEnabled toggles the cross-solve threshold cache and returns
// the previous setting. Disabled, every solve fills a private threshold
// vector. Disabling does not purge — re-enabling reuses still-valid entries;
// call PurgeSolveCaches for a cold start. Results are bit-identical either
// way; the cache is purely a throughput optimisation.
func SetSolveCacheEnabled(enabled bool) bool {
	return cacheEnabled.Swap(enabled)
}

// SolveCacheEnabled reports whether the cross-solve cache is active.
func SolveCacheEnabled() bool { return cacheEnabled.Load() }

// PurgeSolveCaches drops every cached threshold vector. Tests use it to
// force cold-path measurements; production code never needs it (the LRU
// bound already caps memory).
func PurgeSolveCaches() {
	thresholds.purge()
}

// cacheKey identifies one target within one immutable index snapshot. The
// pointer half keeps the snapshot alive while the entry exists, so a key can
// never alias a later allocation at the same address.
type cacheKey struct {
	idx    *subdomain.Index
	target int
}

// lruTable is the mutex-guarded LRU map of threshold entries. Entries carry
// their own locks; the table lock covers only lookup, insertion, and
// eviction bookkeeping.
type lruTable struct {
	mu    sync.Mutex
	max   int
	items map[cacheKey]*list.Element
	order *list.List // front = most recently used
}

type lruSlot struct {
	key cacheKey
	val *thresholdEntry
}

// getOrCreate returns the entry for key, creating it with mk on first use,
// and marks it most recently used. Eviction of the least recently used entry
// keeps the table at its bound. mk runs under the table lock, so it must be
// cheap; fills happen later, under the entry's lock.
func (t *lruTable) getOrCreate(key cacheKey, mk func() *thresholdEntry) *thresholdEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*lruSlot).val
	}
	v := mk()
	t.items[key] = t.order.PushFront(&lruSlot{key: key, val: v})
	for t.order.Len() > t.max {
		last := t.order.Back()
		t.order.Remove(last)
		delete(t.items, last.Value.(*lruSlot).key)
		mSolveCacheEvictions.Inc()
	}
	return v
}

func (t *lruTable) purge() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.items = map[cacheKey]*list.Element{}
	t.order.Init()
}

// take removes every slot keyed to the given index snapshot and returns
// them. The migration layer iterates them outside the table lock.
func (t *lruTable) take(idx *subdomain.Index) []lruSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []lruSlot
	for key, el := range t.items {
		if s := el.Value.(*lruSlot); s.key.idx == idx {
			out = append(out, *s)
			t.order.Remove(el)
			delete(t.items, key)
		}
	}
	return out
}

// thresholdTableMax bounds the (index, target) threshold vectors kept.
const thresholdTableMax = 256

var thresholds = &lruTable{max: thresholdTableMax, items: map[cacheKey]*list.Element{}, order: list.New()}

// Threshold slot states; a byte per query keeps vectors compact.
const (
	thrUnknown   uint8 = iota // not computed, or the query is removed
	thrBounded                // val/kth hold the k-th competitor
	thrUnbounded              // fewer than k competitors: any score hits
)

// thresholdEntry is one (index, target)'s cache slot. mu serialises fills,
// so concurrent solves of one target compute each threshold once; vec is
// replaced, never mutated, once published.
type thresholdEntry struct {
	mu  sync.Mutex
	vec *thresholdVec
}

// thresholdVec is one target's per-query k-th competitor on one index
// snapshot: slot j is thrBounded with the competitor's score and id,
// thrUnbounded, or thrUnknown. A filled vector has every live slot known and
// every removed one unknown. It is read-only once filled.
type thresholdVec struct {
	idx    *subdomain.Index
	target int
	epoch  uint64
	cached bool // served through the cache: probe lookups count as hits
	state  []uint8
	val    []float64
	kth    []int
}

func newThresholdVec(idx *subdomain.Index, target int, epoch uint64, n int) *thresholdVec {
	return &thresholdVec{idx: idx, target: target, epoch: epoch,
		state: make([]uint8, n), val: make([]float64, n), kth: make([]int, n)}
}

// loadThresholds returns target's filled threshold vector on idx: the cached
// one when it is complete, else a fresh one with every missing live slot
// computed. counts (nil-safe) is the solve's attribution table, charged one
// miss per computed slot; rec (nil-safe) receives the miss count and the
// fill time. The fill is recorded as a "thresholds" span. Callers validate
// target first.
func loadThresholds(ctx context.Context, idx *subdomain.Index, target int, rec *recorder, counts []queryCounts) *thresholdVec {
	_, sp := obs.StartSpan(ctx, "thresholds")
	sp.SetAttr("target", target)
	defer sp.End()
	if !cacheEnabled.Load() {
		v := newThresholdVec(idx, target, idx.Epoch(), idx.Workload().NumQueries())
		sp.SetAttr("filled", v.fill(nil, rec, nil))
		return v
	}
	e := thresholds.getOrCreate(cacheKey{idx: idx, target: target}, func() *thresholdEntry {
		return &thresholdEntry{}
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	w := idx.Workload()
	epoch, n := idx.Epoch(), w.NumQueries()
	prev := e.vec
	if prev != nil && (prev.epoch != epoch || len(prev.state) != n) {
		prev = nil // first fill, or the index mutated in place
	}
	if prev != nil && prev.complete() {
		sp.SetAttr("filled", 0)
		return prev
	}
	v := newThresholdVec(idx, target, epoch, n)
	v.cached = true
	sp.SetAttr("filled", v.fill(prev, rec, counts))
	e.vec = v
	return v
}

// complete reports whether every live slot is known and every removed one
// unknown, i.e. whether a fill would change nothing.
func (v *thresholdVec) complete() bool {
	w := v.idx.Workload()
	for j, s := range v.state {
		if (s == thrUnknown) != w.IsQueryRemoved(j) {
			return false
		}
	}
	return true
}

// fill computes every live slot of the fresh vector v, copying the ones prev
// (nil-safe, same length) already knows, and returns how many it computed.
func (v *thresholdVec) fill(prev *thresholdVec, rec *recorder, counts []queryCounts) int {
	w := v.idx.Workload()
	var t0 time.Time
	if rec != nil && rec.timed {
		t0 = time.Now()
	}
	var sc probeScratch
	filled := 0
	for j := range v.state {
		if w.IsQueryRemoved(j) {
			continue
		}
		if prev != nil && prev.state[j] != thrUnknown {
			v.state[j], v.val[j], v.kth[j] = prev.state[j], prev.val[j], prev.kth[j]
			continue
		}
		if score, id, ok := hitThreshold(v.idx, v.target, j, &sc); ok {
			v.state[j], v.val[j], v.kth[j] = thrBounded, score, id
		} else {
			v.state[j] = thrUnbounded
		}
		filled++
		if counts != nil {
			counts[j].thrMisses++
		}
	}
	if v.cached {
		mThresholdCacheMisses.Add(int64(filled))
		if rec != nil {
			rec.thrMisses.Add(int64(filled))
		}
	}
	if rec != nil && rec.timed {
		rec.thrFill.Add(time.Since(t0).Nanoseconds())
	}
	return filled
}

// threshold returns live query j's k-th competitor score, or ok=false when
// any score hits it. A cached vector counts the lookup as a cache hit on the
// package counters, rec and j's attribution row (rec and sc are nil-safe;
// callers outside a solve, such as the exhaustive verifier, pass nil).
func (v *thresholdVec) threshold(j int, sc *probeScratch, rec *recorder) (float64, bool) {
	if v.cached {
		mThresholdCacheHits.Inc()
		if rec != nil {
			rec.thrHits.Add(1)
		}
		if sc != nil && sc.counts != nil {
			sc.counts[j].thrHits++
		}
	}
	return v.val[j], v.state[j] == thrBounded
}

// hits reports whether the target, moved to the embedded coefficients
// coeff, hits query j. Removed queries are never hit.
func (v *thresholdVec) hits(j int, coeff vec.Vector) bool {
	switch v.state[j] {
	case thrBounded:
		score := vec.Dot(coeff, v.idx.Workload().Query(j).Point)
		return topk.Better(score, v.target, v.val[j], v.kth[j])
	case thrUnbounded:
		return true
	}
	return false
}

// count returns how many of the vector's queries the target hits at coeff.
func (v *thresholdVec) count(coeff vec.Vector) int {
	n := 0
	for j := range v.state {
		if v.hits(j, coeff) {
			n++
		}
	}
	return n
}

// hitSet fills dst, grown to the vector's query count, with the queries the
// target hits at coeff.
func (v *thresholdVec) hitSet(coeff vec.Vector, dst *bitset.Bits) {
	dst.Grow(len(v.state))
	dst.Reset()
	for j := range v.state {
		if v.hits(j, coeff) {
			dst.Set(j)
		}
	}
}

// cachedHitThreshold is hitThreshold read through the target's threshold
// vector. Removed queries have no slot, and with the cache off one slot is
// not worth a vector, so both are computed directly.
func cachedHitThreshold(idx *subdomain.Index, target, j int, sc *probeScratch, rec *recorder) (float64, bool) {
	if !cacheEnabled.Load() || idx.Workload().IsQueryRemoved(j) {
		t, _, ok := hitThreshold(idx, target, j, sc)
		return t, ok
	}
	return loadThresholds(context.Background(), idx, target, rec, nil).threshold(j, sc, rec)
}

// TargetHits returns H on idx's queries for target moved to the embedded
// coefficients coeff (w.Coeff(target) for the unimproved target), counted
// from the cached threshold vector. Callers validate target first.
func TargetHits(ctx context.Context, idx *subdomain.Index, target int, coeff vec.Vector) int {
	return loadThresholds(ctx, idx, target, nil, nil).count(coeff)
}

// --- dirty-set cache migration ---

// dirtyInvalidation gates the migration layer. On by default; the write
// benchmark flips it off to A/B dirty-set invalidation against the old
// whole-epoch behaviour (every write cold-starts the cache).
var dirtyInvalidation atomic.Bool

func init() { dirtyInvalidation.Store(true) }

// SetDirtyInvalidationEnabled toggles dirty-set cache migration across
// mutations and returns the previous setting. Disabled, a mutation's new
// epoch starts with a cold cache (the pre-dirty-set behaviour); results are
// bit-identical either way.
func SetDirtyInvalidationEnabled(enabled bool) bool {
	return dirtyInvalidation.Swap(enabled)
}

// DirtyInvalidationEnabled reports whether dirty-set migration is active.
func DirtyInvalidationEnabled() bool { return dirtyInvalidation.Load() }

// MigrateSolveCaches carries cached threshold vectors across a copy-on-write
// mutation: every vector keyed to the pre-mutation snapshot oldIdx is
// re-keyed to its successor newIdx, minus exactly the slots the mutation's
// dirty set invalidates. A dirty query's slot reverts to unknown for every
// target except the query's sole dirtying object (a target's threshold
// excludes the target itself); clean slots keep their bit-exact values, and
// the next solve fills the rest. The write path calls it after the mutation
// succeeded and before publishing newIdx, so the first post-publish solve
// finds the surviving slots warm.
//
// Old-key entries leave the table, migrated or not: each pins a superseded
// index, and in-flight solves against it already hold their vectors (a solve
// reads the table once, before its first round).
func MigrateSolveCaches(oldIdx, newIdx *subdomain.Index, ds *subdomain.DirtySet) {
	if oldIdx == newIdx || !cacheEnabled.Load() || !dirtyInvalidation.Load() {
		return
	}
	slots := thresholds.take(oldIdx)
	if len(slots) == 0 {
		return
	}
	current := func(e *thresholdEntry) *thresholdVec {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.vec == nil || e.vec.epoch != oldIdx.Epoch() {
			return nil // stale against its own snapshot; nothing worth moving
		}
		return e.vec
	}
	if ds.All() {
		for _, sl := range slots {
			if old := current(sl.val); old != nil {
				mCacheEntriesInvalidated.Add(int64(knownSlots(old.state)))
			}
		}
		return
	}
	newEpoch := newIdx.Epoch()
	n := newIdx.Workload().NumQueries()
	for _, sl := range slots {
		old := current(sl.val)
		if old == nil {
			continue
		}
		nv := newThresholdVec(newIdx, sl.key.target, newEpoch, n)
		nv.cached = true
		copy(nv.state, old.state)
		copy(nv.val, old.val)
		copy(nv.kth, old.kth)
		invalidated := 0
		ds.ForEachQuery(func(j, source int) {
			if j < n && source != sl.key.target && nv.state[j] != thrUnknown {
				nv.state[j] = thrUnknown
				invalidated++
			}
		})
		retained := knownSlots(nv.state)
		mCacheEntriesInvalidated.Add(int64(invalidated))
		if retained == 0 {
			continue // nothing survived; let the new epoch fill cold
		}
		thresholds.getOrCreate(cacheKey{idx: newIdx, target: sl.key.target}, func() *thresholdEntry {
			mCacheEntriesRetained.Add(int64(retained))
			return &thresholdEntry{vec: nv}
		})
	}
}

func knownSlots(state []uint8) int {
	n := 0
	for _, s := range state {
		if s != thrUnknown {
			n++
		}
	}
	return n
}
