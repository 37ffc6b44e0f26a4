package main

import (
	"context"
	"fmt"
	"math"
)

// ladder is the sequence of offered rates the max_rps search tries, as
// multiples of the base rate.
var ladder = []float64{1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10, 12, 16}

// searchMaxRPS offers rising rates, each for the run's seconds, and returns
// the highest rate at which every op's tail stays within its latency limit
// and the backlog does not grow. A failed request misses every limit.
// Each step prints its per-op p50, tail and service-time tail (send to
// reply, without connection wait), which calibrate the limits.
func (rs *runState) searchMaxRPS(ctx context.Context, srv *server, base float64) (float64, error) {
	best := 0.0
	p := rs.ws.TailPercentile / 100
	for _, f := range ladder {
		rate := base * f
		n := int(math.Round(rate * rs.o.seconds))
		reqs := make([]request, 0, n)
		for len(reqs) < n {
			r, ok := rs.w.next()
			if !ok {
				return best, fmt.Errorf("max_rps search ran out of distinct inputs at %.3g/s", rate)
			}
			reqs = append(reqs, r)
		}
		ph := runOpenLoop(ctx, srv, reqs, rate, nil)
		pass := ph.backlogGrowth() <= connections
		line := fmt.Sprintf("# max_rps step %.4g/s: backlog growth %.2f", rate, ph.backlogGrowth())
		for op := 0; op < numOps; op++ {
			var lat, svc []float64
			for i, r := range reqs {
				if r.op != op {
					continue
				}
				o := ph.outcomes[i]
				if !o.ok() {
					lat = append(lat, math.Inf(1))
					continue
				}
				lat = append(lat, ms(o.latency()))
				svc = append(svc, ms(o.done-o.sent))
			}
			if len(lat) == 0 {
				continue
			}
			tail := quantile(lat, p)
			line += fmt.Sprintf("; %s n=%d p50 %.2f tail %.2f svc-tail %.2f", opNames[op], len(lat), median(lat), tail, quantile(svc, p))
			if limit, ok := rs.ws.LatencyLimitMS[opNames[op]]; ok && tail > limit {
				pass = false
			}
		}
		fmt.Println(line)
		if !pass {
			break
		}
		best = rate
	}
	return best, nil
}
