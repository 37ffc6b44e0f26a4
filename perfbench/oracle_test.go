package main

import (
	"math/rand"
	"testing"

	"iq"
)

func TestOracleHandCounted(t *testing.T) {
	// Scores under query (1,0) are the first attribute; under (0,1) the
	// second.
	objects := [][]float64{{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}}
	queries := []wireQuery{
		{ID: 0, K: 1, Point: []float64{1, 0}},
		{ID: 1, K: 1, Point: []float64{0, 1}},
		{ID: 2, K: 2, Point: []float64{0.5, 0.5}}, // all tie at 0.5
	}
	o := newOracle(objects, queries)
	for target, want := range []int{2, 1, 1} {
		if got := o.hits(target, objects[target]); got != want {
			t.Errorf("H(object %d) = %d, want %d", target, got, want)
		}
	}
	// Moving object 1 to (0.05, 0.05) puts it first everywhere.
	if got := o.hits(1, o.shifted(1, []float64{-0.45, -0.45})); got != 3 {
		t.Errorf("H(object 1 improved) = %d, want 3", got)
	}
	// An exact score tie ranks the smaller id first: object 2 matching
	// object 0's score under query 0 still loses to it.
	if got := o.hits(2, []float64{0.1, 0.1}); got != 2 {
		t.Errorf("H(object 2 tied) = %d, want 2 (queries 1 and 2)", got)
	}
}

// The oracle agrees with the engine's own hit counts on random data,
// before and after a strategy.
func TestOracleMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, m = 200, 40
	objects := make([][]float64, n)
	sysObjects := make([]iq.Vector, n)
	for i := range objects {
		objects[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		sysObjects[i] = objects[i]
	}
	queries := make([]wireQuery, m)
	sysQueries := make([]iq.Query, m)
	for j := range queries {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		queries[j] = wireQuery{ID: j, K: 1 + rng.Intn(kMax), Point: p}
		sysQueries[j] = iq.Query{ID: j, K: queries[j].K, Point: p}
	}
	sys, err := iq.NewLinear(sysObjects, sysQueries)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(objects, queries)
	for target := 0; target < n; target += 7 {
		want, err := sys.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.hits(target, objects[target]); got != want {
			t.Errorf("H(%d): oracle %d, engine %d", target, got, want)
		}
		s := nonPositive(rng, 0.3)
		want, err = sys.EvaluateStrategy(target, s)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.hits(target, o.shifted(target, s)); got != want {
			t.Errorf("H(%d + %v): oracle %d, engine %d", target, s, got, want)
		}
	}
}

func TestCheckInvariants(t *testing.T) {
	ok := solveAnswer{Strategy: []float64{-0.3, -0.4}, Cost: 0.5, Hits: 12, BaseHits: 3}
	if err := checkInvariants(solveItem{Op: "mincost", Tau: 12}, ok); err != nil {
		t.Errorf("valid mincost answer rejected: %v", err)
	}
	if err := checkInvariants(solveItem{Op: "mincost", Tau: 13}, ok); err == nil {
		t.Error("mincost answer below τ accepted")
	}
	if err := checkInvariants(solveItem{Op: "maxhit", Budget: 0.49}, ok); err == nil {
		t.Error("maxhit answer over β accepted")
	}
	bad := ok
	bad.Cost = 0.6
	if err := checkInvariants(solveItem{Op: "maxhit", Budget: 1}, bad); err == nil {
		t.Error("cost different from ‖s‖₂ accepted")
	}
}
