package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"iq"
	"iq/internal/ese"
	"iq/internal/subdomain"
	"iq/internal/topk"
)

// solveSample is one answered solve with the request that asked for it.
type solveSample struct {
	req   int
	item  solveItem
	ans   solveAnswer
	httpD time.Duration // sent → done
	lat   time.Duration // due → done
}

// singleSolves returns the answered single-solve requests of op.
func (rs *runState) singleSolves(op int) []solveSample {
	var out []solveSample
	for i, r := range rs.reqs {
		if r.op != op || len(rs.answers[i]) != 1 {
			continue
		}
		o := rs.ph.outcomes[i]
		out = append(out, solveSample{req: i, item: r.items[0], ans: rs.answers[i][0],
			httpD: o.done - o.sent, lat: o.latency()})
	}
	return out
}

// writeCount is the number of write requests the timed phase sent.
func (rs *runState) writeCount() int {
	n := 0
	for _, r := range rs.reqs {
		if r.op == opCommit || r.op == opMutationBatch {
			n++
		}
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceLayers computes the per-layer metrics: from each reply's SolveStats,
// from /metrics deltas across the timed phase, and from timed in-process
// calls into each module's public functions on this workload's inputs.
func (rs *runState) traceLayers(tr *tracer) error {
	v := rs.values
	b, a := rs.before, rs.after

	// iqserver and core, from the replies.
	for _, op := range []int{opMinCost, opMaxHit} {
		name := opNames[op]
		var self, wall, eval, hit, other, rounds, probes, cands, pruned []float64
		maxProbes := 0.0
		for _, s := range rs.singleSolves(op) {
			st := s.ans.Stats
			self = append(self, ms(s.httpD)-float64(st.WallNS)/1e6)
			wall = append(wall, float64(st.WallNS)/1e6)
			eval = append(eval, float64(st.EvalWallNS)/1e6)
			hit = append(hit, float64(st.SolveHitWallNS)/1e6)
			other = append(other, float64(st.WallNS-st.EvalWallNS-st.SolveHitWallNS)/1e6)
			rounds = append(rounds, float64(st.Rounds))
			probes = append(probes, float64(st.Probes))
			cands = append(cands, float64(st.Candidates))
			pruned = append(pruned, float64(st.Pruned))
			if float64(st.Probes) > maxProbes {
				maxProbes = float64(st.Probes)
			}
			// The server reports the solve's duration, not its start: the
			// span is drawn from the send time.
			sent := rs.ph.start.Sub(tr.t0) + rs.ph.outcomes[s.req].sent
			tr.add(0, s.req, "core.solve "+name, sent, sent+time.Duration(st.WallNS), map[string]any{
				"target": s.item.Target, "latency_ms": ms(s.lat), "eval_ms": eval[len(eval)-1], "solve_hit_ms": hit[len(hit)-1],
				"rounds": st.Rounds, "probes": st.Probes, "threshold_hits": st.ThresholdHits,
				"threshold_misses": st.ThresholdMisses})
		}
		v["iqserver.self_ms.p50."+name] = median(self)
		v["core.wall_ms.p50."+name] = median(wall)
		v["core.wall_ms.p99."+name] = quantile(wall, 0.99)
		v["core.eval_ms.p50."+name] = median(eval)
		v["core.solve_hit_ms.p50."+name] = median(hit)
		v["core.other_ms.p50."+name] = median(other)
		v["core.rounds.mean."+name] = mean(rounds)
		v["core.probes.mean."+name] = mean(probes)
		v["core.candidates.mean."+name] = mean(cands)
		v["core.pruned.mean."+name] = mean(pruned)
		v["core.probes.max."+name] = maxProbes
		// The traced phase against the same schedule replayed untraced.
		base := median(rs.opLatencies(rs.untraced, op))
		v["obs.trace_overhead_pct."+name] = 100 * ratio(median(rs.opLatencies(rs.ph, op))-base, base)
	}

	// facade: batch efficiency of /v1/solve/batch.
	var itemWall, capacity float64
	for i, r := range rs.reqs {
		if r.op != opSolveBatch || rs.answers[i] == nil {
			continue
		}
		o := rs.ph.outcomes[i]
		for _, ans := range rs.answers[i] {
			itemWall += float64(ans.Stats.WallNS)
		}
		capacity += float64(o.done-o.sent) * float64(min(len(r.items), runtime.GOMAXPROCS(0)))
	}
	v["facade.batch_efficiency"] = ratio(itemWall, capacity)

	// Cache and ESE counters, from the replies and /metrics deltas.
	var thrHits, thrMisses float64
	for _, answers := range rs.answers {
		for _, ans := range answers {
			thrHits += float64(ans.Stats.ThresholdHits)
			thrMisses += float64(ans.Stats.ThresholdMisses)
		}
	}
	v["iqserver.throttled"] = delta(b, a, "iq_http_throttled_total")
	v["iqserver.timeouts"] = delta(b, a, "iq_http_timeouts_total")
	v["core.threshold_cache.hit_ratio"] = ratio(thrHits, thrHits+thrMisses)
	evHits, evMiss := delta(b, a, "iq_evaluator_cache_hits_total"), delta(b, a, "iq_evaluator_cache_misses_total")
	v["core.evaluator_cache.hit_ratio"] = ratio(evHits, evHits+evMiss)
	v["core.cache.evictions"] = delta(b, a, "iq_solve_cache_evictions_total")
	ret, inv := delta(b, a, "iq_cache_entries_retained_total"), delta(b, a, "iq_cache_entries_invalidated_total")
	v["core.cache.retained_ratio"] = ratio(ret, ret+inv)
	solves := delta(b, a, "iq_solve_total")
	evals := delta(b, a, "iq_ese_evaluations_total")
	v["ese.evaluations.per_solve"] = ratio(evals, solves)
	v["ese.evaluators_built.per_1k"] = 1000 * ratio(delta(b, a, "iq_ese_evaluators_built_total"), solves)
	v["ese.slab_searches.per_eval"] = ratio(delta(b, a, "iq_ese_slab_searches_total"), evals)
	v["ese.queries_touched.per_eval"] = ratio(delta(b, a, "iq_ese_queries_touched_total"), evals)
	v["ese.root_prunes.per_eval"] = ratio(delta(b, a, "iq_ese_root_prunes_total"), evals)
	v["ese.rebuilds"] = delta(b, a, "iq_ese_rebuilds_total")
	// iq_ese_evaluations_total counts only the evaluations the memo missed.
	memo := delta(b, a, "iq_ese_hit_memo_hits_total")
	v["ese.hit_memo.hit_ratio"] = ratio(memo, memo+evals)
	rcHits, rcMiss := delta(b, a, "iq_ese_rank_cache_hits_total"), delta(b, a, "iq_ese_rank_cache_misses_total")
	v["ese.rank_cache.hit_ratio"] = ratio(rcHits, rcHits+rcMiss)

	// subdomain and wal, from /metrics.
	writes := float64(rs.writeCount())
	v["subdomain.subdomains"] = a.sum("iq_index_subdomains")
	v["subdomain.candidates"] = a.sum("iq_index_candidates")
	v["subdomain.clone_ms.p50"] = 1000 * histQuantile(b, a, "iq_index_clone_seconds", 0.5)
	v["subdomain.repartitions.per_commit"] = ratio(delta(b, a, "iq_index_repartitions_total")+
		delta(b, a, "iq_index_batched_repartitions_total"), writes)
	v["subdomain.updates.per_commit"] = ratio(delta(b, a, "iq_index_updates_total"), writes)
	v["subdomain.dirty_set.p50"] = histQuantile(b, a, "iq_dirty_set_size", 0.5)
	v["wal.fsync_ms.p50"] = 1000 * histQuantile(b, a, "iq_wal_fsync_duration_seconds", 0.5)
	v["wal.fsync_ms.p99"] = 1000 * histQuantile(b, a, "iq_wal_fsync_duration_seconds", 0.99)
	v["wal.fsyncs.per_commit"] = ratio(delta(b, a, "iq_wal_fsyncs_total"), writes)
	v["wal.bytes.per_mutation"] = ratio(delta(b, a, "iq_wal_bytes_written_total"), delta(b, a, "iq_wal_records_total"))
	if _, ok := v["wal.recovery_s"]; !ok {
		v["wal.recovery_s"] = 0 // no durability drill on an in-memory workload
	}

	// runtime, from the go_* families.
	v["runtime.gc_cycles.per_1k_req"] = 1000 * ratio(delta(b, a, "go_gc_cycles"), float64(len(rs.reqs)))
	v["runtime.gc_pause_ms.p99"] = 1000 * histQuantile(b, a, "go_gc_pause_seconds", 0.99)
	v["runtime.sched_latency_ms.p99"] = 1000 * histQuantile(b, a, "go_sched_latency_seconds", 0.99)
	v["runtime.heap_mb"] = a.sum("go_heap_objects_bytes") / (1 << 20)

	// harness.
	for op := 0; op < numOps; op++ {
		v["harness.requests."+opNames[op]] = float64(len(rs.opLatencies(rs.ph, op)))
	}

	if err := rs.inProcess(tr); err != nil {
		return err
	}
	rs.explainSlowest()
	return tr.write(rs.tracePath())
}

// inProcess times calls into the engine's public functions, with the server
// stopped so nothing else competes for the CPUs.
func (rs *runState) inProcess(tr *tracer) error {
	v := rs.values
	ctx := context.Background()
	space := topk.LinearSpace{D: dim}
	queries := make([]topk.Query, len(rs.w.queries))
	for i, q := range rs.w.queries {
		queries[i] = topk.Query{ID: q.ID, K: q.K, Point: q.Point}
	}
	objects := make([]iq.Vector, len(rs.w.objects))
	for i, o := range rs.w.objects {
		objects[i] = o
	}
	wl, err := topk.NewWorkload(space, objects, queries)
	if err != nil {
		return err
	}

	// subdomain: Algorithm 1 on this workload's dataset.
	var builds []float64
	var idx *subdomain.Index
	for i := 0; i < 3; i++ {
		d, err := tr.timed("subdomain.Build", func() error {
			var err error
			idx, err = subdomain.Build(wl, subdomain.Options{})
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, ms(d))
	}
	v["subdomain.build_ms"] = median(builds)

	// ese: evaluator construction on cold targets, and Hits on distinct
	// random strategies (a repeated strategy would time the hit memo).
	rng := rand.New(rand.NewSource(rs.o.seed))
	var buildMS, hitsUS []float64
	for _, t := range rng.Perm(len(objects))[:8] {
		var ev *ese.Evaluator
		d, err := tr.timed("ese.New", func() error {
			var err error
			ev, err = ese.New(idx, t)
			return err
		})
		if err != nil {
			return err
		}
		buildMS = append(buildMS, ms(d))
		for k := 0; k < 16; k++ {
			s := nonPositive(rng, betaMax)
			d, err := tr.timed("ese.Hits", func() error {
				_, err := ev.Hits(s)
				return err
			})
			if err != nil {
				return err
			}
			hitsUS = append(hitsUS, float64(d)/1e3)
		}
	}
	v["ese.build_ms.p50"] = median(buildMS)
	v["ese.hits_us.p50"] = median(hitsUS)

	if err := rs.facadeAndWAL(ctx, tr); err != nil {
		return err
	}
	return rs.shardSolves(ctx, tr)
}

// writeSequence is the write-mix mutation sequence for this seed: single
// commits and four-mutation batches, in schedule order.
func writeSequence(seed int64, n int) (*workload, []request) {
	w := writeMix(rand.New(rand.NewSource(datasetSeed)), rand.New(rand.NewSource(seed)))
	var seq []request
	for len(seq) < n {
		r, _ := w.next()
		if r.op == opCommit || r.op == opMutationBatch {
			seq = append(seq, r)
		}
	}
	return w, seq
}

// mutations decodes a write request's body into facade mutations.
func mutations(r request) ([]iq.Mutation, error) {
	if r.op == opCommit {
		return []iq.Mutation{{Commit: &iq.CommitMutation{Target: r.target, Strategy: r.strategy}}}, nil
	}
	var body struct {
		Mutations []mutationWire `json:"mutations"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil {
		return nil, err
	}
	out := make([]iq.Mutation, len(body.Mutations))
	for i, m := range body.Mutations {
		switch m.Op {
		case "commit":
			out[i].Commit = &iq.CommitMutation{Target: m.Target, Strategy: m.Strategy}
		case "add_object":
			out[i].AddObject = &iq.AddObjectMutation{Attrs: m.Attrs}
		case "add_query":
			out[i].AddQuery = &iq.AddQueryMutation{Query: iq.Query{ID: m.QueryID, K: m.K, Point: m.Point}}
		case "remove_query":
			out[i].RemoveQuery = &iq.RemoveQueryMutation{Index: m.Index}
		default:
			return nil, fmt.Errorf("unexpected mutation %q", m.Op)
		}
	}
	return out, nil
}

func newSystem(w *workload, opts iq.IndexOptions) (*iq.System, error) {
	objects := make([]iq.Vector, len(w.objects))
	for i, o := range w.objects {
		objects[i] = o
	}
	queries := make([]iq.Query, len(w.queries))
	for i, q := range w.queries {
		queries[i] = iq.Query{ID: q.ID, K: q.K, Point: q.Point}
	}
	return iq.NewWithOptions(iq.LinearSpace{D: dim}, objects, queries, opts)
}

// facadeAndWAL times System.CommitCtx and ApplyBatchCtx on the write-mix
// mutation sequence: in memory (facade.*), and over an iq.Open store under
// each fsync policy (wal.commit_ms.*).
func (rs *runState) facadeAndWAL(ctx context.Context, tr *tracer) error {
	const writes = 24
	w, seq := writeSequence(rs.o.seed, writes)
	policies := []struct {
		name   string
		policy iq.FsyncPolicy
	}{{"memory", 0}, {"off", iq.FsyncOff}, {"interval", iq.FsyncInterval}, {"always", iq.FsyncAlways}}
	for _, p := range policies {
		sys, err := newSystem(w, iq.IndexOptions{})
		if err != nil {
			return err
		}
		var store *iq.Store
		if p.name != "memory" {
			dir, err := os.MkdirTemp(rs.o.workdir, "wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			if store, err = iq.Open(dir, iq.OpenOptions{Fsync: p.policy}); err != nil {
				return err
			}
			if err := store.Attach(ctx, sys); err != nil {
				store.Close()
				return err
			}
		}
		var commits, batches []float64
		for _, r := range seq {
			muts, err := mutations(r)
			if err != nil {
				return err
			}
			name := "facade.CommitCtx"
			if r.op == opMutationBatch {
				name = "facade.ApplyBatchCtx"
			}
			d, err := tr.timed(name+" ("+p.name+")", func() error {
				if r.op == opCommit {
					return sys.CommitCtx(ctx, r.target, r.strategy)
				}
				_, err := sys.ApplyBatchCtx(ctx, muts)
				return err
			})
			if err != nil {
				if store != nil {
					store.Close()
				}
				return fmt.Errorf("%s under %s: %w", name, p.name, err)
			}
			if r.op == opCommit {
				commits = append(commits, ms(d))
			} else {
				batches = append(batches, ms(d))
			}
		}
		if store != nil {
			if err := store.Close(); err != nil {
				return err
			}
		}
		v := rs.values
		v["wal.commit_ms.p50."+p.name] = median(commits)
		if p.name == "memory" {
			v["facade.commit_ms.p50"] = median(commits)
			v["facade.apply_batch_ms.p50"] = median(batches)
		}
	}
	return nil
}

// shardSolves times cold in-process solves on cold-solve inputs built with
// 1, 2 and 4 shards. The same targets are solved under each shard count,
// with the solve caches purged before every solve.
func (rs *runState) shardSolves(ctx context.Context, tr *tracer) error {
	const perOp = 4
	rng := rand.New(rand.NewSource(rs.o.seed))
	w := coldSolve(rand.New(rand.NewSource(datasetSeed)), rand.New(rand.NewSource(rs.o.seed)))
	var items []solveItem
	for _, t := range rng.Perm(len(w.objects))[:2*perOp] {
		if len(items) < perOp {
			items = append(items, solveItem{Op: "mincost", Target: t, Tau: uniformTau(rng)})
		} else {
			items = append(items, solveItem{Op: "maxhit", Target: t, Budget: uniformBeta(rng)})
		}
	}
	for _, shards := range []int{1, 2, 4} {
		sys, err := newSystem(w, iq.IndexOptions{Shards: shards})
		if err != nil {
			return err
		}
		times := map[string][]float64{}
		for _, it := range items {
			iq.PurgeSolveCaches()
			d, err := tr.timed(fmt.Sprintf("shard.solve %s (%d shards)", it.Op, shards), func() error {
				var err error
				if it.Op == "mincost" {
					_, err = sys.MinCostCtx(ctx, iq.MinCostRequest{Target: it.Target, Tau: it.Tau, Cost: iq.L2Cost{}})
				} else {
					_, err = sys.MaxHitCtx(ctx, iq.MaxHitRequest{Target: it.Target, Budget: it.Budget, Cost: iq.L2Cost{}})
				}
				return err
			})
			if err != nil {
				return err
			}
			times[it.Op] = append(times[it.Op], ms(d))
		}
		for op, ts := range times {
			rs.values[fmt.Sprintf("shard.solve_ms.p50.%d.%s", shards, op)] = median(ts)
		}
	}
	return nil
}

// slowRequest explains one of the slowest requests of a traced run.
type slowRequest struct {
	Request   int         `json:"request"`
	Op        string      `json:"op"`
	LatencyMS float64     `json:"latency_ms"`
	WaitMS    float64     `json:"wait_ms"`
	Items     []solveItem `json:"items,omitempty"`
	Stats     []wireStats `json:"stats,omitempty"`
	// Failure is the status and reply of a request that failed, such as
	// a solve that ran out of its deadline (504): it returns no stats.
	Failure string `json:"failure,omitempty"`
}

// explainSlowest lists the five slowest requests with their inputs and the
// SolveStats the server returned, so a tail outlier explains itself.
func (rs *runState) explainSlowest() {
	idx := make([]int, len(rs.reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		return rs.ph.outcomes[idx[x]].latency() > rs.ph.outcomes[idx[y]].latency()
	})
	for _, i := range idx[:min(5, len(idx))] {
		o := rs.ph.outcomes[i]
		sr := slowRequest{Request: i, Op: opNames[rs.reqs[i].op], LatencyMS: ms(o.latency()),
			WaitMS: ms(o.sent - o.due), Items: rs.reqs[i].items}
		for _, a := range rs.answers[i] {
			sr.Stats = append(sr.Stats, a.Stats)
		}
		if !o.ok() {
			sr.Failure = fmt.Sprintf("status %d, err %v: %s", o.status, o.err, strings.TrimSpace(string(o.body)))
		}
		rs.slowest = append(rs.slowest, sr)
		fmt.Printf("# slow: request %d %s latency %.1f ms (waited %.1f ms for a connection)\n",
			i, sr.Op, sr.LatencyMS, sr.WaitMS)
		if sr.Failure != "" {
			fmt.Printf("#   failed with %s\n", sr.Failure)
		}
		for k, it := range sr.Items {
			goal := fmt.Sprintf("tau %d", it.Tau)
			if it.Op == "maxhit" {
				goal = fmt.Sprintf("beta %.4g", it.Budget)
			}
			if k >= len(sr.Stats) {
				fmt.Printf("#   %s target %d %s: no stats\n", it.Op, it.Target, goal)
				continue
			}
			st := sr.Stats[k]
			fmt.Printf("#   %s target %d %s: rounds %d probes %d candidates %d pruned %d, wall %.1f ms = solve_hit %.1f + eval %.1f + other, threshold cache %d hits / %d misses\n",
				it.Op, it.Target, goal, st.Rounds, st.Probes, st.Candidates, st.Pruned,
				float64(st.WallNS)/1e6, float64(st.SolveHitWallNS)/1e6, float64(st.EvalWallNS)/1e6,
				st.ThresholdHits, st.ThresholdMisses)
		}
	}
}
