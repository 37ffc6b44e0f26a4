package main

import (
	"fmt"
	"math"
)

// oracle is the benchmark's exact answer checker: a brute-force linear
// top-k hit counter over the dataset the server was loaded with. It shares
// no code with the engine. Scores are dot products summed in attribute
// order, and ties break toward the smaller object id, the engine's total
// order; so on the same float inputs it reproduces the engine's ranking bit
// for bit.
type oracle struct {
	objects [][]float64
	queries []oracleQuery
}

type oracleQuery struct {
	k     int
	point []float64
}

func newOracle(objects [][]float64, queries []wireQuery) *oracle {
	o := &oracle{objects: objects}
	for _, q := range queries {
		o.queries = append(o.queries, oracleQuery{k: q.K, point: q.Point})
	}
	return o
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// better reports whether (sa, ia) ranks strictly ahead of (sb, ib): lower
// score first, then lower id.
func better(sa float64, ia int, sb float64, ib int) bool {
	if sa != sb {
		return sa < sb
	}
	return ia < ib
}

// hits counts the queries whose top-k holds target when its attributes are
// attrs: a query hits when fewer than k other objects rank ahead of it.
func (o *oracle) hits(target int, attrs []float64) int {
	n := 0
	for _, q := range o.queries {
		st := dot(attrs, q.point)
		ahead := 0
		for j, obj := range o.objects {
			if j != target && better(dot(obj, q.point), j, st, target) {
				if ahead++; ahead >= q.k {
					break
				}
			}
		}
		if ahead < q.k {
			n++
		}
	}
	return n
}

// shifted returns target's attributes plus strategy.
func (o *oracle) shifted(target int, strategy []float64) []float64 {
	out := make([]float64, len(strategy))
	for i, s := range strategy {
		out[i] = o.objects[target][i] + s
	}
	return out
}

func norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// solveAnswer is the part of a /v1/mincost, /v1/maxhit or batch item reply
// the checks read.
type solveAnswer struct {
	Strategy []float64 `json:"strategy"`
	Cost     float64   `json:"cost"`
	Hits     int       `json:"hits"`
	BaseHits int       `json:"base_hits"`
	Stats    wireStats `json:"stats"`
	Error    string    `json:"error"`
}

// costTol absorbs the rounding between the engine's cost and ‖s‖₂ summed
// here; both are computed from the same float strategy.
const costTol = 1e-9

// checkInvariants checks what holds at any epoch: a MinCost answer reaches
// τ, a MaxHit answer stays within β, and the reported cost is ‖s‖₂ of the
// returned strategy.
func checkInvariants(it solveItem, a solveAnswer) error {
	if a.Error != "" {
		return fmt.Errorf("item error: %s", a.Error)
	}
	if got := norm2(a.Strategy); math.Abs(got-a.Cost) > costTol*math.Max(1, got) {
		return fmt.Errorf("cost %v but ‖s‖₂ = %v", a.Cost, got)
	}
	switch it.Op {
	case "mincost":
		if a.Hits < it.Tau {
			return fmt.Errorf("mincost reached %d hits, τ = %d", a.Hits, it.Tau)
		}
	case "maxhit":
		if a.Cost > it.Budget*(1+costTol) {
			return fmt.Errorf("maxhit cost %v exceeds β = %v", a.Cost, it.Budget)
		}
		if a.Hits < a.BaseHits {
			return fmt.Errorf("maxhit lost hits: %d < base %d", a.Hits, a.BaseHits)
		}
	}
	return nil
}

// checkExact adds the brute-force counts to the invariants: base_hits is
// H(p) and hits is H(p+s) on the loaded dataset.
func (o *oracle) checkExact(it solveItem, a solveAnswer) error {
	if err := checkInvariants(it, a); err != nil {
		return err
	}
	if want := o.hits(it.Target, o.objects[it.Target]); a.BaseHits != want {
		return fmt.Errorf("base_hits %d, brute force H(p) = %d", a.BaseHits, want)
	}
	if want := o.hits(it.Target, o.shifted(it.Target, a.Strategy)); a.Hits != want {
		return fmt.Errorf("hits %d, brute force H(p+s) = %d", a.Hits, want)
	}
	return nil
}
