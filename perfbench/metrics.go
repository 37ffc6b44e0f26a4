package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metricSet is one /metrics scrape: series name with its label string
// ("iq_wal_fsyncs_total", `iq_solve_total{op="mincost",outcome="ok"}`) to
// value.
type metricSet map[string]float64

func parseMetrics(b []byte) metricSet {
	out := metricSet{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of family name (all label sets), so a counter split
// by labels reads as its total.
func (m metricSet) sum(name string) float64 {
	t := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is after − before for the family total.
func delta(before, after metricSet, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histQuantile estimates quantile q of the observations a histogram family
// gained between two scrapes, interpolating linearly inside the bucket the
// quantile falls in (the Prometheus histogram_quantile rule). Buckets of
// every label set are merged. It returns 0 when no observation was added.
func histQuantile(before, after metricSet, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	counts := map[float64]float64{}
	prefix := name + "_bucket{"
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			continue
		}
		counts[le] += v - before[k]
	}
	var bs []bucket
	for le, n := range counts {
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n <= 0 {
		return 0
	}
	total := bs[len(bs)-1].n
	rank := q * total
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}
