package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"iq/internal/bitset"
	"iq/internal/ese"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// FuzzThresholdHits is the differential oracle for the serving path's hit
// counter: on tiny workloads decoded from the fuzz input, the threshold
// vector's count and hit set must equal a full-scan brute-force recount
// (Workload.Evaluate per query, with the target moved) and ESE's
// (Algorithm 2) count and hit set, for the unimproved target and for one
// improved position.
//
// Every coordinate is a multiple of 1/4 (strategies of 1/8), so scores are
// exact binary fractions: duplicate objects and exact score ties are common
// and are decided by topk.Better's id tie-break on every path alike. The
// inputs cover all three space kinds (linear, a polynomial ExprSpace, and a
// heterogeneous linear+polynomial space), K up to one past the object
// count, and removed objects and queries. Query weights stay positive, the
// domain in which the candidate skyband provably holds every top-k member.
// The seed corpus is testdata/fuzz/FuzzThresholdHits.
func FuzzThresholdHits(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkThresholdHits(t, &fuzzBytes{b: data})
	})
}

// fuzzBytes decodes small integers from a fuzz input, yielding zeros once
// the input is exhausted so every input decodes to some workload.
type fuzzBytes struct {
	b []byte
	i int
}

func (r *fuzzBytes) intn(n int) int {
	if r.i >= len(r.b) {
		return 0
	}
	v := int(r.b[r.i])
	r.i++
	return v % n
}

// quarter returns one of 0.25, 0.5, 0.75, 1.
func (r *fuzzBytes) quarter() float64 { return float64(1+r.intn(4)) / 4 }

// polySpace is a polynomial utility over d ∈ {1, 2, 3} attributes.
func polySpace(t *testing.T, d int) *topk.ExprSpace {
	src := [...]string{
		"w1 * a^2 + w2 * a",
		"w1 * a^2 + w2 * (a * b) + w3 * b",
		"w1 * (a * b) + w2 * c^2 + w3 * a",
	}[d-1]
	names := []string{"a", "b", "c"}[:d]
	s, err := topk.NewExprSpace(src, names)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkThresholdHits(t *testing.T, r *fuzzBytes) {
	kind, d := r.intn(3), 1+r.intn(3)
	var space topk.Space
	var hetero *topk.HeterogeneousSpace // queries lift into one family
	switch kind {
	case 0:
		space = topk.LinearSpace{D: d}
	case 1:
		space = polySpace(t, d)
	default:
		h, err := topk.NewHeterogeneousSpace(topk.LinearSpace{D: d}, polySpace(t, d))
		if err != nil {
			t.Fatal(err)
		}
		space, hetero = h, h
	}

	n := 2 + r.intn(11)
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		if i > 0 && r.intn(4) == 0 {
			attrs[i] = vec.Clone(attrs[r.intn(i)]) // duplicate object
			continue
		}
		attrs[i] = make(vec.Vector, d)
		for k := range attrs[i] {
			attrs[i][k] = r.quarter()
		}
	}
	m := 1 + r.intn(8)
	queries := make([]topk.Query, m)
	for j := range queries {
		family, qd := 0, space.QueryDim()
		if hetero != nil {
			family = r.intn(2)
			qd = hetero.Family(family).QueryDim()
		}
		pt := make(vec.Vector, qd)
		for k := range pt {
			pt[k] = r.quarter()
		}
		if hetero != nil {
			var err error
			if pt, err = hetero.Lift(family, pt); err != nil {
				t.Fatal(err)
			}
		}
		queries[j] = topk.Query{ID: j, K: 1 + r.intn(n+1), Point: pt}
	}
	w, err := topk.NewWorkload(space, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.Build(w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := r.intn(3); k > 0 && w.LiveObjects() > 1; k-- {
		if id := r.intn(n); !w.IsRemoved(id) {
			if err := idx.RemoveObject(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.intn(2) == 1 {
		if err := idx.RemoveQuery(r.intn(m)); err != nil {
			t.Fatal(err)
		}
	}
	target := r.intn(n)
	for w.IsRemoved(target) {
		target = (target + 1) % n
	}
	s := make(vec.Vector, d)
	for k := range s {
		s[k] = float64(r.intn(9)-4) / 8
	}

	thr := loadThresholds(context.Background(), idx, target, nil, nil)
	ev, err := ese.New(idx, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []vec.Vector{make(vec.Vector, d), s} {
		moved := vec.Add(w.Attrs(target), u)
		coeff, err := space.Embed(moved)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: move the target in a copy and rank every live query
		// over every live object.
		bw := w.Clone()
		if err := bw.UpdateObject(target, moved); err != nil {
			t.Fatal(err)
		}
		want := map[int]bool{}
		for j := 0; j < m; j++ {
			if !w.IsQueryRemoved(j) && bw.Evaluate(bw.Query(j)).Contains(target) {
				want[j] = true
			}
		}

		if got := thr.count(coeff); got != len(want) {
			t.Fatalf("strategy %v: threshold count %d, brute force %d", u, got, len(want))
		}
		bits := bitset.New(m)
		thr.hitSet(coeff, bits)
		for j := 0; j < m; j++ {
			if bits.Get(j) != want[j] {
				t.Fatalf("strategy %v query %d: threshold hit=%v, brute force %v", u, j, bits.Get(j), want[j])
			}
		}
		if got := ev.HitsWithCoeff(coeff); got != len(want) {
			t.Fatalf("strategy %v: ESE count %d, brute force %d", u, got, len(want))
		}
		eseSet := ev.HitSet(coeff)
		for j := 0; j < m; j++ {
			if eseSet[j] != want[j] {
				t.Fatalf("strategy %v query %d: ESE hit=%v, brute force %v", u, j, eseSet[j], want[j])
			}
		}
	}
}

// FuzzExprCost feeds arbitrary cost expressions through NewExprCost and Of,
// the path an untrusted cost.expr takes from iqserver's JSON. An input must
// either be rejected with an error or yield a cost that is 0 at the zero
// strategy and evaluates without panicking, deterministically. Input nested
// past expr.MaxDepth must be rejected rather than overflow the stack. The
// seed corpus is testdata/fuzz/FuzzExprCost.
func FuzzExprCost(f *testing.F) {
	for _, src := range []string{
		"sqrt(s1^2 + s2^2)",
		"abs(s1) + 2*abs(s2) - -abs(s3)",
		"max(s1, -s2) * min(s2, s3) / (1 + s1^2)",
		"log(1 + abs(s1)) + exp(s2) - 1",
		"pow(s1, 2) + s2*s2",
		strings.Repeat("(", 2000) + "s1" + strings.Repeat(")", 2000),
	} {
		f.Add(src, uint8(3), 0.5, -0.25, 2.0)
	}
	f.Fuzz(func(t *testing.T, src string, dim uint8, a, b, c float64) {
		d := 1 + int(dim%4)
		cost, err := NewExprCost(src, d)
		if err != nil {
			return
		}
		if z := cost.Of(vec.New(d)); math.Abs(z) > 1e-9 {
			t.Fatalf("%q: zero strategy costs %g", src, z)
		}
		s := vec.New(d)
		copy(s, []float64{a, b, c})
		v1, v2 := cost.Of(s), cost.Of(s)
		if math.Float64bits(v1) != math.Float64bits(v2) {
			t.Fatalf("%q at %v: Of is not deterministic: %g then %g", src, s, v1, v2)
		}
	})
}
