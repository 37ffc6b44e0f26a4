//go:build !race

// Allocation regression pins for the PR 5 hot-path sweep. The race detector
// instruments allocations, so these only run in normal builds (ci.sh runs
// `go test ./...` without -race alongside the -race pass).

package core

import (
	"context"
	"math/rand"
	"testing"

	"iq/internal/bitset"
	"iq/internal/vec"
)

// A cache-warm linear-path probe (threshold lookup + closed-form halfspace
// projection) must allocate only the returned strategy vector — everything
// else lives in probeScratch. The ceiling is deliberately a little loose so
// runtime-internal noise cannot flake the build, but map-per-call or
// clone-per-call regressions (dozens of allocations) trip it immediately.
func TestSolveHitAllocsLinearWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	idx := fixture(t, rng, 80, 50, 3, 3)
	withCaches(t, true, func() {
		target := 3
		cur := make(vec.Vector, 3)
		bounds := &Bounds{Lo: vec.Vector{-1, -1, -1}, Hi: vec.Vector{1, 1, 1}}
		sc := &probeScratch{}
		thr := loadThresholds(context.Background(), idx, target, nil, nil)
		// Warm the threshold cache and the scratch buffers.
		for j := 0; j < idx.Workload().NumQueries(); j++ {
			if _, err := solveHit(thr, cur, j, L2Cost{}, bounds, sc, nil); err != nil {
				t.Fatal(err)
			}
		}
		j := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := solveHit(thr, cur, j, L2Cost{}, bounds, sc, nil); err != nil {
				t.Fatal(err)
			}
			j = (j + 1) % idx.Workload().NumQueries()
		})
		if allocs > 4 {
			t.Errorf("warm linear probe allocates %.1f times per call; want <= 4", allocs)
		}
	})
}

// A cache-warm greedy round (generateCandidates over the full unhit set on
// the serial path) must allocate proportionally to the number of probes —
// one strategy vector each — not to the workload size squared. Before the
// sweep each round also built a fresh unhit slice, a results slice, a
// map-based hit set per evaluation, and per-probe bounds clones.
func TestGenerateCandidatesAllocsPerRoundWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	idx := fixture(t, rng, 80, 50, 3, 3)
	withCaches(t, true, func() {
		ctx := context.Background()
		target := 2
		rec := newRecorder()
		thr := loadThresholds(ctx, idx, target, rec, nil)
		hit := bitset.New(idx.Workload().NumQueries())
		thr.hitSet(idx.Workload().Coeff(target), hit)
		cur := make(vec.Vector, 3)
		rs := &roundScratch{}
		probes := 0
		warm := func() int {
			cands, err := generateCandidates(ctx, thr, 1, cur, hit, L2Cost{}, nil, rs, rec)
			if err != nil {
				t.Fatal(err)
			}
			return len(cands)
		}
		probes = warm() // fill every scratch buffer and the threshold cache
		if probes == 0 {
			t.Fatal("fixture produced no candidates; pick a different target")
		}
		allocs := testing.AllocsPerRun(20, func() { warm() })
		perProbe := allocs / float64(probes)
		if perProbe > 4 {
			t.Errorf("warm round allocates %.2f per probe (%d probes, %.0f total); want <= 4",
				perProbe, probes, allocs)
		}
	})
}
