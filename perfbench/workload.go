package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"iq/internal/dataset"
	"iq/internal/topk"
)

// Operations, in the order results are reported.
const (
	opMinCost = iota
	opMaxHit
	opSolveBatch
	opEvaluate
	opCommit
	opMutationBatch
	numOps
)

var opNames = [numOps]string{"mincost", "maxhit", "solve_batch", "evaluate", "commit", "mutation_batch"}

var opPaths = [numOps]string{"/v1/mincost", "/v1/maxhit", "/v1/solve/batch", "/v1/evaluate", "/v1/commit", "/v1/commit/batch"}

// Parameters shared by every workload: the bench.Quick() ranges.
const (
	dim     = 3
	kMax    = 10
	tauMin  = 10
	tauMax  = 40
	betaMin = 0.1
	betaMax = 0.35
	hotSet  = 16
	// warmBudgetMS is the deadline warm-repeat puts on each timed solve: an
	// interactive budget 7x the slowest warm solve whose ESE hit memo holds
	// its probes (about 35 ms). A solve whose probes overflow the memo
	// re-solves from scratch every time (1.7 s to 18 s on this dataset),
	// runs out of budget and fails.
	warmBudgetMS = 250
	// warmupBudgetMS bounds each untimed warm-up solve. A cold solve that
	// does not finish within it is one whose warm repeats overflow the memo
	// too; the warm-up records it and goes on.
	warmupBudgetMS = 10000
	zipfS          = 1.1
	clusters       = 5
	// commitNorm bounds ‖s‖₂ of the strategies write-mix commits.
	commitNorm = 0.02
	batchItems = 4
	// connections bounds the HTTP connections a run opens to the server:
	// at most nproc (2) on the calibration host.
	connections = 2
	// setups is how many times a run launches and loads the server to time
	// its set-up, half before the warm-up and half after the timed phase;
	// setup_s is their median, so it samples the host at both ends of the
	// run.
	setups = 40
)

type wireQuery struct {
	ID    int       `json:"id"`
	K     int       `json:"k"`
	Point []float64 `json:"point"`
}

// wireStats mirrors the SolveStats fields of a solve reply.
type wireStats struct {
	Rounds          int   `json:"rounds"`
	Probes          int   `json:"probes"`
	Pruned          int   `json:"pruned"`
	Candidates      int   `json:"candidates"`
	WallNS          int64 `json:"wall_ns"`
	SolveHitWallNS  int64 `json:"solve_hit_wall_ns"`
	EvalWallNS      int64 `json:"eval_wall_ns"`
	ThresholdHits   int   `json:"threshold_cache_hits"`
	ThresholdMisses int   `json:"threshold_cache_misses"`
}

// solveItem is one Min-Cost or Max-Hit solve: a single-solve request, or one
// item of a /v1/solve/batch request.
type solveItem struct {
	Op     string  `json:"op"`
	Target int     `json:"target"`
	Tau    int     `json:"tau,omitempty"`
	Budget float64 `json:"budget,omitempty"`
}

type mutationWire struct {
	Op       string    `json:"op"`
	Target   int       `json:"target,omitempty"`
	Strategy []float64 `json:"strategy,omitempty"`
	Attrs    []float64 `json:"attrs,omitempty"`
	QueryID  int       `json:"query_id,omitempty"`
	K        int       `json:"k,omitempty"`
	Point    []float64 `json:"point,omitempty"`
	Index    int       `json:"index,omitempty"`
}

// request is one scheduled HTTP request with what the checks need to know
// about it.
type request struct {
	op       int
	body     []byte
	items    []solveItem // solves: one item, or the batch's items
	target   int         // evaluate and commit
	strategy []float64   // evaluate and commit
}

func solveRequest(it solveItem) request { return solveRequestWithin(it, 0) }

// solveRequestWithin asks the server to give up on the solve after
// timeoutMS (0: the server's own deadline); a solve that runs out answers
// 504 and counts as failed.
func solveRequestWithin(it solveItem, timeoutMS int) request {
	op := opMinCost
	if it.Op == "maxhit" {
		op = opMaxHit
	}
	body := it.single()
	if timeoutMS > 0 {
		body["timeout_ms"] = timeoutMS
	}
	return request{op: op, body: mustJSON(body), items: []solveItem{it}}
}

// single is the body of a /v1/mincost or /v1/maxhit request for it.
func (it solveItem) single() map[string]any {
	if it.Op == "mincost" {
		return map[string]any{"target": it.Target, "tau": it.Tau}
	}
	return map[string]any{"target": it.Target, "budget": it.Budget}
}

func batchRequest(items []solveItem) request {
	return request{op: opSolveBatch, body: mustJSON(map[string]any{"items": items}), items: items}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of them are marshalled
	}
	return b
}

// workload is one traffic mix over one generated dataset.
type workload struct {
	name    string
	objects [][]float64
	queries []wireQuery
	// durable runs the server over a data dir with -fsync always, and
	// closes the run with the durability drill.
	durable bool
	// exact checks every answer against the brute-force oracle; otherwise
	// only the invariants that hold at any epoch are checked.
	exact  bool
	warmup []request
	// next draws the i-th request of the timed schedule; ok is false when
	// the workload has run out of distinct inputs.
	next func() (r request, ok bool)
}

// deck deals cards in exact proportions: each pass through the deck deals
// card c counts[c] times, in shuffled order. Drawing a run's op mix and its
// Zipf picks this way keeps the proportions exact within every pass instead
// of drifting binomially from seed to seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, counts []int) *deck {
	d := &deck{rng: rng}
	for c, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, c)
		}
	}
	d.next = len(d.cards)
	return d
}

// opDeck deals operations by their share out of 20.
func opDeck(rng *rand.Rand, shares map[int]int) *deck {
	counts := make([]int, numOps)
	for op, n := range shares {
		counts[op] = n
	}
	return newDeck(rng, counts)
}

// zipfDeck deals hot-set ranks with Zipf(s=1.1) weights, P(r) ∝ (r+1)^-1.1
// (rand.NewZipf with v=1), rounded to a 100-card deck: about one pass per
// op in a run.
func zipfDeck(rng *rand.Rand) *deck {
	w := make([]float64, hotSet)
	total := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
		total += w[r]
	}
	counts := make([]int, hotSet)
	for r := range w {
		counts[r] = max(1, int(math.Round(100*w[r]/total)))
	}
	return newDeck(rng, counts)
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

func uniformTau(rng *rand.Rand) int { return tauMin + rng.Intn(tauMax-tauMin+1) }

func uniformBeta(rng *rand.Rand) float64 { return betaMin + rng.Float64()*(betaMax-betaMin) }

// nonPositive draws a strategy that only lowers (improves) attributes, with
// a uniformly random direction in the negative orthant and norm uniform in
// (0, maxNorm].
func nonPositive(rng *rand.Rand, maxNorm float64) []float64 {
	s := make([]float64, dim)
	n := 0.0
	for n == 0 {
		for i := range s {
			s[i] = -math.Abs(rng.NormFloat64())
		}
		n = norm2(s)
	}
	scale := maxNorm * (1 - rng.Float64()) / n
	for i := range s {
		s[i] *= scale
	}
	return s
}

// genData draws n IN objects and m queries (UN, or CL with five clusters)
// plus extra queries from the same distribution for later add_query
// mutations.
func genData(rng *rand.Rand, n, m, extra int, clustered bool) ([][]float64, []wireQuery, []wireQuery) {
	objs := dataset.Objects(dataset.Independent, n, dim, rng)
	objects := make([][]float64, n)
	for i, o := range objs {
		objects[i] = o
	}
	var qs []topk.Query
	if clustered {
		qs = dataset.CLQueries(m+extra, dim, kMax, clusters, true, rng)
	} else {
		qs = dataset.UNQueries(m+extra, dim, kMax, true, rng)
	}
	wq := make([]wireQuery, len(qs))
	for i, q := range qs {
		wq[i] = wireQuery{ID: q.ID, K: q.K, Point: q.Point}
	}
	return objects, wq[:m], wq[m:]
}

// hotTarget is one member of a Zipf hot set with its fixed goals.
type hotTarget struct {
	target int
	tau    int
	beta   float64
}

func drawHotSet(rng *rand.Rand, n int) []hotTarget {
	hot := make([]hotTarget, hotSet)
	for i, t := range rng.Perm(n)[:hotSet] {
		hot[i] = hotTarget{target: t, tau: uniformTau(rng), beta: uniformBeta(rng)}
	}
	return hot
}

func (h hotTarget) solve(op string) solveItem {
	if op == "mincost" {
		return solveItem{Op: op, Target: h.target, Tau: h.tau}
	}
	return solveItem{Op: op, Target: h.target, Budget: h.beta}
}

// datasetSeed draws every workload's dataset: seed 1 is the dataset of the
// earlier BENCH_PR*.json ledgers. The run's -seed draws the traffic over it
// (targets, goals, hot sets, strategies and mutations), so runs with
// different seeds measure different users of one reference dataset.
const datasetSeed = 1

// newWorkload builds the named workload with its traffic drawn from seed.
// Every input the server sees is drawn here.
func newWorkload(name string, seed int64) (*workload, error) {
	data := rand.New(rand.NewSource(datasetSeed))
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "cold-solve":
		return coldSolve(data, rng), nil
	case "warm-repeat":
		return warmRepeat(data, rng), nil
	case "write-mix":
		return writeMix(data, rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// coldSolve: 1,000 IN × 120 UN; every solve names a target not solved
// before in the run. 45% mincost, 45% maxhit, 10% batches of 4 cold items.
func coldSolve(data, rng *rand.Rand) *workload {
	w := &workload{name: "cold-solve", exact: true}
	w.objects, w.queries, _ = genData(data, 1000, 120, 0, false)
	targets := rng.Perm(len(w.objects))
	item := func(mincost bool) solveItem {
		t := targets[0]
		targets = targets[1:]
		if mincost {
			return solveItem{Op: "mincost", Target: t, Tau: uniformTau(rng)}
		}
		return solveItem{Op: "maxhit", Target: t, Budget: uniformBeta(rng)}
	}
	mix := opDeck(rng, map[int]int{opMinCost: 9, opMaxHit: 9, opSolveBatch: 2})
	w.next = func() (request, bool) {
		op := mix.deal()
		if op != opSolveBatch {
			if len(targets) == 0 {
				return request{}, false
			}
			return solveRequest(item(op == opMinCost)), true
		}
		if len(targets) < batchItems {
			return request{}, false
		}
		items := make([]solveItem, batchItems)
		for i := range items {
			items[i] = item(rng.Intn(2) == 0)
		}
		return batchRequest(items), true
	}
	return w
}

// warmRepeat: 2,000 IN × 250 UN; a 16-target Zipf hot set, 40% mincost,
// 40% maxhit, 20% evaluate of a fresh what-if strategy.
func warmRepeat(data, rng *rand.Rand) *workload {
	w := &workload{name: "warm-repeat", exact: true}
	w.objects, w.queries, _ = genData(data, 2000, 250, 0, false)
	hot := drawHotSet(rng, len(w.objects))
	for _, h := range hot {
		w.warmup = append(w.warmup, solveRequestWithin(h.solve("mincost"), warmupBudgetMS),
			solveRequestWithin(h.solve("maxhit"), warmupBudgetMS))
	}
	// Each op picks its hot target from its own deck.
	zipf := [numOps]*deck{opMinCost: zipfDeck(rng), opMaxHit: zipfDeck(rng), opEvaluate: zipfDeck(rng)}
	mix := opDeck(rng, map[int]int{opMinCost: 8, opMaxHit: 8, opEvaluate: 4})
	w.next = func() (request, bool) {
		op := mix.deal()
		h := hot[zipf[op].deal()]
		switch op {
		case opMinCost:
			return solveRequestWithin(h.solve("mincost"), warmBudgetMS), true
		case opMaxHit:
			return solveRequestWithin(h.solve("maxhit"), warmBudgetMS), true
		default:
			s := nonPositive(rng, h.beta)
			return request{op: opEvaluate, target: h.target, strategy: s,
				body: mustJSON(map[string]any{"target": h.target, "strategy": s})}, true
		}
	}
	return w
}

// writeMix: 1,000 IN × 120 CL; reads 30% mincost + 30% maxhit over a Zipf
// hot set, 25% single commits, 15% four-mutation batches that keep the
// query count at 120.
func writeMix(data, rng *rand.Rand) *workload {
	const m = 120
	w := &workload{name: "write-mix", durable: true}
	var extra []wireQuery
	w.objects, w.queries, extra = genData(data, 1000, m, 4000, true)
	n := len(w.objects)
	// The hot set belongs to the reference dataset here: which items are
	// popular is fixed, and the seed draws the reads, commits and batches
	// around them. Commits still invalidate the hot targets' cached work,
	// which is what this workload measures.
	hot := drawHotSet(data, n)
	zipf := [numOps]*deck{opMinCost: zipfDeck(rng), opMaxHit: zipfDeck(rng)}
	batches := 0
	mix := opDeck(rng, map[int]int{opMinCost: 6, opMaxHit: 6, opCommit: 5, opMutationBatch: 3})
	w.next = func() (request, bool) {
		switch mix.deal() {
		case opMinCost:
			return solveRequest(hot[zipf[opMinCost].deal()].solve("mincost")), true
		case opMaxHit:
			return solveRequest(hot[zipf[opMaxHit].deal()].solve("maxhit")), true
		case opCommit:
			t, s := rng.Intn(n), nonPositive(rng, commitNorm)
			return request{op: opCommit, target: t, strategy: s,
				body: mustJSON(map[string]any{"target": t, "strategy": s})}, true
		default:
			if batches == len(extra) {
				return request{}, false
			}
			attrs := make([]float64, dim)
			for i := range attrs {
				attrs[i] = rng.Float64()
			}
			q := extra[batches]
			muts := []mutationWire{
				{Op: "add_object", Attrs: attrs},
				{Op: "commit", Target: rng.Intn(n), Strategy: nonPositive(rng, commitNorm)},
				{Op: "add_query", QueryID: m + batches, K: q.K, Point: q.Point},
				// Queries are removed oldest first: batch i removes the
				// i-th query ever loaded, so no two batches race for one.
				{Op: "remove_query", Index: batches},
			}
			batches++
			return request{op: opMutationBatch, body: mustJSON(map[string]any{"mutations": muts})}, true
		}
	}
	return w
}
