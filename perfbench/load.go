package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what happened to one scheduled request. Times are offsets from
// the phase start.
type outcome struct {
	due, sent, done time.Duration
	status          int
	err             error
	body            []byte
}

// latency runs from the scheduled send time, so a request that waited for a
// busy connection is charged for the wait (no coordinated omission).
func (o outcome) latency() time.Duration { return o.done - o.due }

func (o outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// phase is one open-loop run of a request schedule.
type phase struct {
	outcomes []outcome
	// lag is how late the generator itself handed each request out,
	// measured against its schedule.
	lag []time.Duration
	// backlog is the number of due-but-unsent requests, sampled as each
	// request falls due.
	backlog []int
	start   time.Time
}

// runOpenLoop sends reqs at a fixed rate over at most connections
// connections. With a tracer it records spans of every request.
// Requests are due at start + i/rate whether or not earlier ones have
// finished; a due request waits for a free connection.
func runOpenLoop(ctx context.Context, s *server, reqs []request, rate float64, tr *tracer) *phase {
	p := &phase{outcomes: make([]outcome, len(reqs)),
		lag: make([]time.Duration, len(reqs)), backlog: make([]int, len(reqs))}
	jobs := make(chan int, len(reqs)) // sized to the schedule: the generator never blocks
	var started atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	p.start = start
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				started.Add(1)
				r := reqs[i]
				o := &p.outcomes[i]
				o.sent = time.Since(start)
				o.status, o.body, o.err = s.do(ctx, "POST", opPaths[r.op], r.body)
				o.done = time.Since(start)
				if tr != nil {
					base := start.Sub(tr.t0)
					root := tr.add(0, i, "request "+opNames[r.op], base+o.due, base+o.done, nil)
					tr.add(root, i, "harness.wait", base+o.due, base+o.sent, nil)
					tr.add(root, i, "iqserver.http", base+o.sent, base+o.done, map[string]any{"status": o.status})
				}
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i := range reqs {
		due := time.Duration(i) * interval
		p.outcomes[i].due = due
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		p.lag[i] = time.Since(start) - due
		p.backlog[i] = i - int(started.Load())
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return p
}

// backlogGrowth is how much the backlog grew over the phase: the
// least-squares slope of backlog against schedule position, times the
// schedule's length. A queue that builds up and stays counts as growth; a
// steady system reads near 0.
func (p *phase) backlogGrowth() float64 {
	n := float64(len(p.backlog))
	if n < 3 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, b := range p.backlog {
		x, y := float64(i), float64(b)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx) * n
}

// quantile returns the q-quantile of xs (nearest rank on sorted data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
